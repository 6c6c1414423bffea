//go:build poison

package gen

import (
	"math/bits"
	"slices"
	"testing"
	"unsafe"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// TestReleaseLaidReturnsItsArrays pins what releasing a laid graph hands
// back: every array the DAG owns — both sides of a chain or a pipeline; the
// children side of a dynamic final graph — and none of the expander's,
// whose parent lists read as they did. A laid graph is forward and owns no
// order array, so the release returns none. The classes
// the graph's arrays come from are drained first, down to a fresh, zeroed
// array, so afterwards each class's stack holds exactly what the release
// put there: the arrays the graph owned, all ones from the poisoning Put,
// and past them a fresh array again.
func TestReleaseLaidReturnsItsArrays(t *testing.T) {
	// A dynamic final DAG borrows its parent arrays capped at their lengths,
	// which Put would pool only at a class size: the narrow spec's 3 nodes
	// and 2 edges make both class-sized, so a release that reached them
	// would poison them.
	expand := func(cfg Config) func() *Dyn {
		return func() *Dyn {
			d, err := NewDynamic(cfg, DynLimits{})
			if err == nil {
				_, err = walk(d, func([]dag.NodeID) {})
			}
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	final := func(d *Dyn) (*dag.DAG, error) { return d.FinalDAG() }
	for _, tc := range []struct {
		name   string
		owned  int // offsets arrays and lists the DAG owns
		expand func() *Dyn
		build  func(*Dyn) (*dag.DAG, error)
	}{
		{name: "chain", owned: 2, build: func(*Dyn) (*dag.DAG, error) { return ChainDAG(1000) }},
		{name: "pipeline", owned: 2, build: func(*Dyn) (*dag.DAG, error) { return PipelineDAG(20, 5) }},
		{name: "dynamic", owned: 1, build: final,
			expand: expand(Config{Shape: Dynamic, Stages: 7, Width: 3, EdgeProb: 0.3, Seed: 11})},
		{name: "narrow dynamic", owned: 1, build: final,
			expand: expand(Config{Shape: Dynamic, Stages: 2, Width: 1, Seed: 1})},
	} {
		var dyn *Dyn
		var parOff []int32
		var parents []dag.NodeID
		if tc.expand != nil {
			dyn = tc.expand()
			parOff, parents = expanderParents(dyn)
		}
		d, err := tc.build(dyn)
		if err != nil {
			t.Fatal(err)
		}
		n, m := d.NumNodes(), d.NumEdges()
		d.Release()

		// Drain each class the graph takes from; then lay it out again.
		offClass := bits.Len(uint(n)) // the class of n+1 offsets
		lists := map[int]int{bits.Len(uint(m - 1)): tc.owned}
		lists[bits.Len(uint(n-1))] += 0 // an order's class: a laid graph puts none there
		for dag.Offsets(1 << offClass)[0] == -1 {
		}
		for c := range lists {
			for dag.IDs(1 << c)[0] == -1 {
			}
		}
		if d, err = tc.build(dyn); err != nil {
			t.Fatal(err)
		}
		want := []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(d.Children(0)))}
		if tc.owned == 2 {
			want = append(want, unsafe.Pointer(unsafe.SliceData(d.Parents(0))))
		}
		d.Release()

		for i := 0; i < tc.owned; i++ {
			if o := dag.Offsets(1 << offClass); slices.ContainsFunc(o, func(x int32) bool { return x != -1 }) {
				t.Fatalf("%s: offsets array %d of %d is not all ones: the release kept it, or it was written after", tc.name, i+1, tc.owned)
			}
		}
		if o := dag.Offsets(1 << offClass); o[0] == -1 {
			t.Fatalf("%s: the release returned more than %d offsets arrays", tc.name, tc.owned)
		}
		var got []unsafe.Pointer
		for c, k := range lists {
			for i := 0; i < k; i++ {
				s := dag.IDs(1 << c)
				if slices.ContainsFunc(s, func(x dag.NodeID) bool { return x != -1 }) {
					t.Fatalf("%s: list %d of %d in class %d is not all ones", tc.name, i+1, k, c)
				}
				got = append(got, unsafe.Pointer(unsafe.SliceData(s)))
			}
			if s := dag.IDs(1 << c); s[0] == -1 {
				t.Fatalf("%s: the release returned more than %d lists of class %d", tc.name, k, c)
			}
		}
		for _, p := range want {
			if !slices.Contains(got, p) {
				t.Fatalf("%s: an array of the DAG's is not on its free list after the release", tc.name)
			}
		}

		if dyn != nil {
			g := dyn.graph.Load()
			if !slices.Equal(g.parOff, parOff) || !slices.Equal(g.parents, parents) {
				t.Fatalf("%s: releasing the final DAG reached the expander's parent lists", tc.name)
			}
			dyn.Release()
		}
	}
}
