package slab

import "testing"

func TestGetSizesToClass(t *testing.T) {
	var l List[int32]
	for _, tc := range []struct{ n, cap int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1025, 2048}} {
		s := l.Get(tc.n)
		if len(s) != tc.n || cap(s) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, want %d %d", tc.n, len(s), cap(s), tc.n, tc.cap)
		}
	}
	if s := l.Get(0); s != nil {
		t.Errorf("Get(0) = %v, want nil", s)
	}
}

// TestPutRecycles pins that a released slice is the next one its class
// hands out, whichever goroutine, and so whichever processor, released it:
// the class's stack, unlike a sync.Pool's per-processor caches, is one for
// the whole list.
func TestPutRecycles(t *testing.T) {
	var l List[uint64]
	s := l.Get(100)
	l.Put(s[:10])
	if again := l.Get(128); &again[0] != &s[0] {
		t.Fatal("Get did not return the array a Put gave back")
	}
	released := make(chan []uint64)
	for i := 0; i < 8; i++ {
		go func() {
			s := l.Get(100)
			l.Put(s)
			released <- s
		}()
		s := <-released
		if again := l.Get(100); &again[0] != &s[0] {
			t.Fatalf("round %d: Get did not return the array another goroutine put back", i)
		}
	}
}

func TestPutDropsOtherCapacities(t *testing.T) {
	var l List[uint64]
	odd := make([]uint64, 3)
	l.Put(odd)
	l.Put(nil)
	for i := 0; i < 8; i++ {
		if s := l.Get(3); &s[0] == &odd[0] {
			t.Fatal("Get returned a slice whose capacity is not a class size")
		}
	}
}

// TestStacksKeepAtMostBudget pins the byte cap on what a list keeps out of
// the garbage collector's reach: of four 4 MiB slices put back, the stacks
// keep two, and a Get of each frees its share of the budget.
func TestStacksKeepAtMostBudget(t *testing.T) {
	var l List[uint64]
	const n = 1 << 19 // 4 MiB of uint64
	for i := 0; i < 4; i++ {
		l.Put(make([]uint64, n))
	}
	if got := len(l.stacks[class(n)]); got != 2 || l.held != budget {
		t.Fatalf("stack holds %d slices, %d bytes; want 2, %d", got, l.held, budget)
	}
	l.Get(n)
	l.Get(n)
	if l.held != 0 {
		t.Fatalf("%d bytes held after both were taken, want 0", l.held)
	}
}
