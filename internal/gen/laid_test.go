package gen

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// The generators lay their graphs out with dag.Laid, which checks nothing
// at run time. These tests are those checks: every laid graph must be the
// DAG dag.FromParents freezes, validating each offset and parent, from the
// same parent lists, array for array.

// chainParents states the n-node chain's parent lists independently of
// ChainDAG: node v > 0 has the one parent v-1.
func chainParents(n int) (off []int32, parents []dag.NodeID) {
	off = make([]int32, n+1)
	for v := 1; v < n; v++ {
		parents = append(parents, dag.NodeID(v-1))
		off[v+1] = int32(len(parents))
	}
	return off, parents
}

// pipelineParents states the stages×width pipeline's parent lists
// independently of PipelineDAG, node by node in ascending ID order: the
// source has none, stage 0 has the source, a later grid node the columns
// j-1..j+1 of the stage before, and the sink all of the last stage.
func pipelineParents(stages, width int) (off []int32, parents []dag.NodeID) {
	id := func(s, i int) dag.NodeID { return dag.NodeID(1 + s*width + i) }
	off = []int32{0, 0}
	for s := 0; s < stages; s++ {
		for j := 0; j < width; j++ {
			if s == 0 {
				parents = append(parents, 0)
			}
			for i := max(j-1, 0); s > 0 && i <= min(j+1, width-1); i++ {
				parents = append(parents, id(s-1, i))
			}
			off = append(off, int32(len(parents)))
		}
	}
	for i := 0; i < width; i++ {
		parents = append(parents, id(stages-1, i))
	}
	return append(off, int32(len(parents))), parents
}

// expanderParents copies the parent lists d has published.
func expanderParents(d *Dyn) (off []int32, parents []dag.NodeID) {
	g := d.graph.Load()
	return slices.Clone(g.parOff), slices.Clone(g.parents)
}

// checkLaid compares the laid graph got with the DAG FromParents freezes
// from off and parents, which it takes: Parents, Children, TopoOrder,
// NumEdges and Depth must all agree. It releases the reference.
func checkLaid(tb testing.TB, name string, got *dag.DAG, off []int32, parents []dag.NodeID) {
	tb.Helper()
	n := len(off) - 1
	want, err := dag.FromParents(n, off, parents)
	if err != nil {
		tb.Fatalf("%s: FromParents refuses the parent lists: %v", name, err)
	}
	defer want.Release()
	if got.NumNodes() != n || got.NumEdges() != want.NumEdges() {
		tb.Fatalf("%s: %d nodes/%d edges, FromParents %d/%d", name, got.NumNodes(), got.NumEdges(), n, want.NumEdges())
	}
	for v := dag.NodeID(0); int(v) < n; v++ {
		if p, w := got.Parents(v), want.Parents(v); !slices.Equal(p, w) {
			tb.Fatalf("%s: Parents(%d) = %v, FromParents %v", name, v, p, w)
		}
		if c, w := got.Children(v), want.Children(v); !slices.Equal(c, w) {
			tb.Fatalf("%s: Children(%d) = %v, FromParents %v", name, v, c, w)
		}
	}
	if !slices.Equal(got.TopoOrder(), want.TopoOrder()) {
		tb.Fatalf("%s: TopoOrder = %v, FromParents %v", name, got.TopoOrder(), want.TopoOrder())
	}
	if got.Depth() != want.Depth() {
		tb.Fatalf("%s: Depth = %d, FromParents computes %d", name, got.Depth(), want.Depth())
	}
}

// checkFinal expands d as far as it grows — to its last level, or to the
// level whose build failed — and checks its final DAG against FromParents'
// freeze of the expander's parent lists. It returns the expansion's error.
func checkFinal(tb testing.TB, name string, d *Dyn) error {
	tb.Helper()
	_, err := walk(d, func([]dag.NodeID) {})
	fin, _ := d.FinalDAG()
	off, parents := expanderParents(d)
	checkLaid(tb, name, fin, off, parents)
	fin.Release()
	return err
}

// TestLaidShapes holds every chain up to 2049 nodes, every pipeline up to
// 40 stages by 17 columns, and the final graphs of 96 dynamic configs, p=0
// and p=1 among them, plus three whose growth stopped at ErrGrowthBound and
// one frozen mid-expansion, to the FromParents freeze of their parent
// lists.
func TestLaidShapes(t *testing.T) {
	for n := 1; n <= 2049; n++ {
		d, err := ChainDAG(n)
		if err != nil {
			t.Fatal(err)
		}
		off, parents := chainParents(n)
		checkLaid(t, fmt.Sprintf("chain n=%d", n), d, off, parents)
		d.Release()
	}
	for stages := 1; stages <= 40; stages++ {
		for width := 1; width <= 17; width++ {
			d, err := PipelineDAG(stages, width)
			if err != nil {
				t.Fatal(err)
			}
			off, parents := pipelineParents(stages, width)
			checkLaid(t, fmt.Sprintf("pipeline %dx%d", stages, width), d, off, parents)
			d.Release()
		}
	}

	configs := 0
	for _, stages := range []int{1, 3, 6, 10} {
		for _, width := range []int{1, 2, 4} {
			for _, p := range []float64{0, 0.2, 0.6, 1} {
				for _, seed := range []int64{1, 7} {
					cfg := Config{Shape: Dynamic, Stages: stages, Width: width, EdgeProb: p, Seed: seed}
					d, err := NewDynamic(cfg, DynLimits{})
					if err != nil {
						t.Fatal(err)
					}
					if err := checkFinal(t, fmt.Sprintf("%+v", cfg), d); err != nil {
						t.Fatalf("%+v: %v", cfg, err)
					}
					d.Release()
					configs++
				}
			}
		}
	}
	for _, tc := range []struct {
		cfg    Config
		limits DynLimits
	}{
		{Config{Shape: Dynamic, Stages: 30, Width: 4, Seed: 5}, DynLimits{MaxNodes: 200}},
		{Config{Shape: Dynamic, Stages: 30, Width: 4, EdgeProb: 0.9, Seed: 5}, DynLimits{MaxEdges: 100}},
		{Config{Shape: Dynamic, Stages: 3, Width: 3, EdgeProb: 0.5, Seed: 2}, DynLimits{MaxNodes: 1}},
	} {
		d, err := NewDynamic(tc.cfg, tc.limits)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFinal(t, fmt.Sprintf("%+v under %+v", tc.cfg, tc.limits), d); !errors.Is(err, ErrGrowthBound) {
			t.Fatalf("%+v under %+v: expansion = %v, want ErrGrowthBound", tc.cfg, tc.limits, err)
		}
		d.Release()
		configs++
	}
	if configs < 50 {
		t.Fatalf("%d dynamic configs, want at least 50", configs)
	}

	// Frozen mid-expansion: levels 0..2 published, level 2 the newest.
	d, err := NewDynamic(Config{Shape: Dynamic, Stages: 8, Width: 3, EdgeProb: 0.4, Seed: 3}, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	children, err := d.Expand(0)
	if err == nil {
		_, err = d.Expand(children[0])
	}
	if err != nil {
		t.Fatal(err)
	}
	fin, _ := d.FinalDAG()
	defer fin.Release()
	if fin.Depth() != 2 {
		t.Fatalf("mid-expansion Depth = %d, want 2", fin.Depth())
	}
	off, parents := expanderParents(d)
	checkLaid(t, "mid-expansion", fin, off, parents)
}

// FuzzLaidShapes draws a chain, a pipeline and a dynamic config, the last
// under a node cap or none, and checks each laid graph against FromParents'
// freeze of its parent lists. Every graph is released, so later inputs lay
// out into recycled arrays: under the poison tag a slot a layout leaves
// unwritten reads -1.
func FuzzLaidShapes(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), int64(1), uint16(0))
	f.Add(uint16(65535), uint8(40), uint8(17), uint8(6), uint8(3), uint8(51), int64(7), uint16(0))
	f.Add(uint16(2), uint8(2), uint8(2), uint8(30), uint8(4), uint8(255), int64(5), uint16(200))
	f.Add(uint16(4096), uint8(1), uint8(9), uint8(12), uint8(1), uint8(128), int64(-3), uint16(1))
	f.Fuzz(func(t *testing.T, chainN uint16, stages, width, dynStages, dynWidth, p uint8, seed int64, maxNodes uint16) {
		n := int(chainN)%4097 + 1
		d, err := ChainDAG(n)
		if err != nil {
			t.Fatal(err)
		}
		off, parents := chainParents(n)
		checkLaid(t, fmt.Sprintf("chain n=%d", n), d, off, parents)
		d.Release()

		s, w := int(stages)%48+1, int(width)%24+1
		if d, err = PipelineDAG(s, w); err != nil {
			t.Fatal(err)
		}
		off, parents = pipelineParents(s, w)
		checkLaid(t, fmt.Sprintf("pipeline %dx%d", s, w), d, off, parents)
		d.Release()

		cfg := Config{Shape: Dynamic, Stages: int(dynStages)%30 + 1, Width: int(dynWidth)%5 + 1, EdgeProb: float64(p) / 255, Seed: seed}
		// Unbounded, a 30-level expansion of width 5 would not fit memory.
		limits := DynLimits{MaxNodes: 20000}
		if maxNodes > 0 {
			limits.MaxNodes = int(maxNodes)%5000 + 1
		}
		dyn, err := NewDynamic(cfg, limits)
		if err != nil {
			t.Fatal(err)
		}
		defer dyn.Release()
		if err := checkFinal(t, fmt.Sprintf("%+v under %+v", cfg, limits), dyn); err != nil && !errors.Is(err, ErrGrowthBound) {
			t.Fatal(err)
		}
	})
}
