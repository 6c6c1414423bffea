//go:build poison

package slab

import "unsafe"

// poison fills s with all-ones bytes.
func poison[T any](s []T) {
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(zero))
	for i := range b {
		b[i] = 0xff
	}
}
