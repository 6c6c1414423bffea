//go:build !poison

package slab

// poison does nothing: only the poison build tag pays to fill released
// slices.
func poison[T any](s []T) {}
