// Package slab recycles the per-run arrays of the engine: one size-classed
// free list per element type (Bonwick, "The Slab Allocator", USENIX Summer
// 1994). A run's graph, node table and results are garbage the moment the
// run returns, and on a small machine fresh memory costs a page fault per
// 4 KB besides the zeroing; a warm engine takes them ready-made instead.
//
// Class c holds slices of capacity 1<<c. Each class keeps the last four
// slices put back on a stack of its own, guarded by the list's mutex, and
// Get takes from the top, so a slice released on one goroutine is found by
// the next Get whichever processor either ran on. What a stack cannot take
// goes to the class's sync.Pool, where a Get finds it only if the pool's
// per-processor caches allow, and the garbage collector evicts it.
//
// The stacks are what the collector never reclaims, so they are capped by
// bytes as well as by count: a list keeps at most 8 MiB on its stacks, and
// a slice that would take it past that goes to the pool. The engine
// declares seven lists (dag's ids and offsets, gen's edge lists and flags,
// sched's values, counters and slice counters), so an idle process holds
// at most 56 MiB in them, whatever size its runs were. Without the byte
// cap, four slices per class of arrays at the service's caps (an edge list
// of a random graph at MaxEdges reaches the 1<<23-entry class) left about
// 300 MB in use after a handful of maximum-size runs and an idle
// collection. The cap still holds every array of the benchmark's runs,
// whose largest, a 100,000-node chain's values, is 1 MiB.
//
// Get returns a slice whose contents are whatever its last user left: a
// caller clears what it reads before writing. Put takes back only a slice
// whose capacity is a class size, which every Get returns; anything else
// is left to the garbage collector.
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
	"unsafe"
)

const (
	// retain is how many released slices of one class a list keeps on its
	// stack, beyond the garbage collector's reach. It covers the arrays of
	// one class a run holds at once: a graph's two edge lists and a
	// non-forward graph's order, or both passes' values.
	retain = 4
	// budget is how many bytes a list keeps on all its stacks together.
	budget = 8 << 20
)

// List is a free list of []T, one class per power-of-two capacity. The zero
// value is ready to use; declare one per element type, in the package that
// owns the type, and never copy it.
type List[T any] struct {
	mu     sync.Mutex
	held   int                  // bytes on the stacks, at most budget
	stacks [bits.UintSize][][]T // class c holds at most retain slices of capacity 1<<c
	pools  [bits.UintSize]sync.Pool
}

// bytes returns the size of a slice of capacity c.
func (l *List[T]) bytes(c int) int {
	var zero T
	return c * int(unsafe.Sizeof(zero))
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
	l.mu.Lock()
	if k := len(l.stacks[c]); k > 0 {
		s := l.stacks[c][k-1]
		l.stacks[c][k-1] = nil
		l.stacks[c] = l.stacks[c][:k-1]
		l.held -= l.bytes(cap(s))
		l.mu.Unlock()
		return s[:n]
	}
	l.mu.Unlock()
	if p, ok := l.pools[c].Get().(*[]T); ok {
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
	k := class(c)
	size := l.bytes(c)
	l.mu.Lock()
	if len(l.stacks[k]) < retain && l.held+size <= budget {
		l.stacks[k] = append(l.stacks[k], s)
		l.held += size
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	boxed := s // declared here, so only a Put that reaches the pool allocates its header
	l.pools[k].Put(&boxed)
}
