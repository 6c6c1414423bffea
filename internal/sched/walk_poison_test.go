//go:build poison

package sched

import (
	"errors"
	"testing"
)

// TestWalkDynamicCancelReleases pins that a cancelled walk hands back every
// values array it took, and touches none after: cancelWalk's walk grows its
// values through one array of each class up to 128 slots, and every one of
// them must be on its free list afterwards, all ones from the poisoning
// Put. The free lists are drained of those classes first, down to a fresh,
// zeroed array, so an all-ones array can only be one the walk released.
func TestWalkDynamicCancelReleases(t *testing.T) {
	const classes = 8 // capacities 1 to 128
	for c := 0; c < classes; c++ {
		for nodeValues.Get(1 << c)[0] == ^uint64(0) {
		}
	}
	if _, err := cancelWalk(t); !errors.Is(err, errStopWalk) {
		t.Fatalf("WalkDynamic = %v, want the context's cause", err)
	}
	for c := 0; c < classes; c++ {
		s := nodeValues.Get(1 << c)
		for i, v := range s {
			if v != ^uint64(0) {
				t.Fatalf("class %d: slot %d of the next array reads %#x: the walk kept its array, or wrote it after release", c, i, v)
			}
		}
	}
}
