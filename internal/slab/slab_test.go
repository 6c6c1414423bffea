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

// TestPutRecycles runs without the race detector's help: under -race a pool
// drops a quarter of what it is given, so a recycled array is likely, not
// certain, and the test asks only that one of a few round trips recycles.
func TestPutRecycles(t *testing.T) {
	var l List[uint64]
	for i := 0; i < 8; i++ {
		s := l.Get(100)
		s[0] = 42
		l.Put(s[:10])
		if again := l.Get(128); &again[0] == &s[0] {
			return
		}
	}
	t.Fatal("no Get returned the array a Put gave back")
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
