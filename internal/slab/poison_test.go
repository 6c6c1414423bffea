//go:build poison

package slab

import "testing"

// TestPutPoisons pins what a use-after-release reads under the poison tag:
// every element of the released array, past its length too, is all ones.
func TestPutPoisons(t *testing.T) {
	var l List[int32]
	s := l.Get(5)
	for i := range s {
		s[i] = int32(i)
	}
	l.Put(s)
	for i, v := range s[:cap(s)] {
		if v != -1 {
			t.Fatalf("released slot %d reads %d, want -1", i, v)
		}
	}
}
