// Package slab recycles the per-run arrays of the engine: one size-classed
// free list per element type (Bonwick, "The Slab Allocator", USENIX Summer
// 1994). A run's graph, node table and results are garbage the moment the
// run returns, and on a small machine fresh memory costs a page fault per
// 4 KB besides the zeroing; a warm engine takes them ready-made instead.
//
// Class c holds slices of capacity 1<<c, each class a sync.Pool, so what
// stays retained is bounded by the garbage collector's eviction of pools,
// not by a cap of our own. Get returns a slice whose contents are whatever
// its last user left: a caller clears what it reads before writing. Put
// takes back only a slice whose capacity is a class size, which every Get
// returns; anything else is left to the garbage collector.
//
// Built with the poison tag, Put overwrites a slice with all-ones bytes
// before it is pooled (-1 for a signed integer, the maximum for an
// unsigned one), so an array read after its release shows as an index
// error, a malformed graph or a verification mismatch, not as quietly
// stale data.
package slab

import (
	"math/bits"
	"sync"
)

// List is a free list of []T, one pool per power-of-two capacity. The zero
// value is ready to use; declare one per element type, in the package that
// owns the type, and never copy it.
type List[T any] struct {
	classes [bits.UintSize]sync.Pool // class c holds *[]T of capacity 1<<c
}

// class returns the smallest c with 1<<c >= n, for n >= 1.
func class(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a slice of length n and capacity the class size above it. Its
// contents are not cleared. Get(0) returns nil.
func (l *List[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := class(n)
	if p, ok := l.classes[c].Get().(*[]T); ok {
		return (*p)[:n]
	}
	return make([]T, n, 1<<c)
}

// Put returns s to the free list: neither s nor any slice of its array may
// be used afterwards. A slice whose capacity is not a class size is
// dropped.
func (l *List[T]) Put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	s = s[:c]
	poison(s)
	l.classes[class(c)].Put(&s)
}
