package gen

import (
	"testing"
	"unsafe"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// narrow returns the expander of a width-1 dynamic spec: one node per
// level.
func narrow(tb testing.TB, stages int) *Dyn {
	tb.Helper()
	d, err := NewDynamic(Config{Shape: Dynamic, Stages: stages, Width: 1, EdgeProb: 0.5, Seed: 4}, DynLimits{})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// expandNarrow expands a narrow expander down its single path, one level
// per Expand, calling each after every Expand.
func expandNarrow(tb testing.TB, d *Dyn, each func()) {
	tb.Helper()
	for u := dag.NodeID(0); ; {
		children, err := d.Expand(u)
		if err != nil {
			tb.Fatal(err)
		}
		if len(children) == 0 {
			break
		}
		u = children[0]
		each()
	}
	if got := d.NumNodes(); got != d.stages+1 {
		tb.Fatalf("stages %d: NumNodes = %d, want %d", d.stages, got, d.stages+1)
	}
}

// publishCost returns a counter of d's publishes: each call reports the
// elements the publishes since the last call wrote into d's four arrays,
// plus the elements they copied when an array moved to a new backing
// array.
func publishCost(d *Dyn) func() int {
	prev := d.graph.Load()
	return func() int {
		g := d.graph.Load()
		n := arrayCost(prev.parOff, g.parOff) + arrayCost(prev.parents, g.parents) +
			arrayCost(prev.kidOff, g.kidOff) + arrayCost(prev.kids, g.kids)
		prev = g
		return n
	}
}

// arrayCost is what turning old into cur wrote: its new elements, and old's
// if cur no longer shares old's backing array.
func arrayCost[E any](old, cur []E) int {
	n := len(cur) - len(old)
	if len(old) > 0 && unsafe.SliceData(old) != unsafe.SliceData(cur) {
		n += len(old)
	}
	return n
}
