package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// hookCheck is a recording Compute hook: on every call it checks what the
// caller handed it against g, the graph the pass runs over (for a
// discovered graph, its final DAG), and ref, the graph's reference values, and returns the node's reference value.
type hookCheck struct {
	g   *dag.DAG
	ref []uint64
	// inPlace: the pass reads values in its own table, so parents must be
	// the graph's own list, not indices into a gathered copy.
	inPlace bool

	calls atomic.Int64
	mu    sync.Mutex
	bad   []string
}

func (c *hookCheck) hook(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
	c.calls.Add(1)
	want := c.g.Parents(id)
	switch {
	case len(parents) != len(want):
		c.fail("node %d: %d parents, the graph has %d", id, len(parents), len(want))
	case c.inPlace && !slices.Equal(parents, want):
		c.fail("node %d: parents %v, the graph's are %v", id, parents, want)
	}
	for i, p := range parents[:min(len(parents), len(want))] {
		if uint(p) >= uint(len(values)) {
			c.fail("node %d: parent %d reads slot %d of %d values", id, i, p, len(values))
		} else if values[p] != c.ref[want[i]] {
			c.fail("node %d: parent %d (node %d) reads %#x, reference %#x", id, i, want[i], values[p], c.ref[want[i]])
		}
	}
	return c.ref[id]
}

func (c *hookCheck) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bad) < 3 {
		c.bad = append(c.bad, fmt.Sprintf(format, args...))
	}
}

// TestHookReadsItsParents pins what every path hands the Compute hook: for
// each node, exactly its parents, in Parents order, each parents[i]
// indexing a values slot that holds the value of the graph's Parents(id)[i]
// — on the sweeps (Serial's, Walk, WalkDynamic), and on the pool over a
// static and a discovered graph at P=2 and P=4, unsplit and split. The
// sweeps and the static pool read in place, so there parents is the
// graph's own list; the pool over a discovered graph gathers, and hands
// indices into the gathered values. A forward random graph and an explicit
// graph ordered by Kahn's pass stand for static graphs.
func TestHookReadsItsParents(t *testing.T) {
	ctx := context.Background()
	w := mustLookup("hashchain")
	random, err := gen.Generate(gen.Config{Shape: gen.Random, Nodes: 300, EdgeProb: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := dag.FromEdges(6, [][2]dag.NodeID{{5, 0}, {0, 1}, {5, 1}, {1, 2}, {4, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !random.Forward() || explicit.Forward() {
		t.Fatalf("Forward: random %v, explicit %v; want true, false", random.Forward(), explicit.Forward())
	}
	dynCfg := gen.Config{Shape: gen.Dynamic, Stages: 8, Width: 3, EdgeProb: 0.3, Seed: 7}
	newDyn := func() *gen.Dyn {
		dyn, err := gen.NewDynamic(dynCfg, gen.DynLimits{})
		if err != nil {
			t.Fatal(err)
		}
		return dyn
	}
	// The discovered graph's reference is Serial's over its final DAG; a
	// fresh expander of the same config numbers its nodes the same way.
	expanded := newDyn()
	if _, err := WalkDynamic(ctx, expanded, 0, w.PureCompute()); err != nil {
		t.Fatal(err)
	}
	final, err := expanded.FinalDAG()
	if err != nil {
		t.Fatal(err)
	}

	// A pass runs f over a graph whose parents and reference values are
	// g's and ref.
	type pass struct {
		name    string
		g       *dag.DAG
		ref     []uint64
		inPlace bool
		run     func(f Compute) ([]uint64, error)
	}
	var passes []pass
	pool := func(name string, g *dag.DAG, ref []uint64, inPlace bool, graph func() DynamicGraph) {
		for _, p := range []int{2, 4} {
			for _, split := range []int{0, 2 * 4096} {
				passes = append(passes, pass{fmt.Sprintf("%s/P=%d/split=%d", name, p, split), g, ref, inPlace,
					func(f Compute) ([]uint64, error) {
						return New(graph(), Options{Workers: p, SplitWork: split}).Run(ctx, f)
					}})
			}
		}
	}
	var finalRef []uint64
	for _, s := range []struct {
		name string
		d    *dag.DAG
	}{{"random", random}, {"explicit", explicit}, {"final", final}} {
		d := s.d
		ref, err := w.Serial(ctx, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d == final {
			finalRef = ref
		}
		passes = append(passes,
			pass{s.name + "/Serial", d, ref, true, func(f Compute) ([]uint64, error) { return sweep(ctx, d, 0, f) }},
			pass{s.name + "/Walk", d, ref, true, func(f Compute) ([]uint64, error) { return Walk(ctx, d, 0, f) }})
		pool(s.name, d, ref, true, func() DynamicGraph { return d })
	}
	passes = append(passes, pass{"dynamic/WalkDynamic", final, finalRef, true, func(f Compute) ([]uint64, error) {
		return WalkDynamic(ctx, newDyn(), 0, f)
	}})
	pool("dynamic", final, finalRef, false, func() DynamicGraph { return newDyn() })

	for _, ps := range passes {
		c := &hookCheck{g: ps.g, ref: ps.ref, inPlace: ps.inPlace}
		vals, err := ps.run(c.hook)
		if err != nil {
			t.Fatalf("%s: %v", ps.name, err)
		}
		for _, msg := range c.bad {
			t.Errorf("%s: %s", ps.name, msg)
		}
		if n := c.calls.Load(); n != int64(len(c.ref)) || !slices.Equal(vals, c.ref) {
			t.Errorf("%s: the hook ran %d times over %d nodes, or the values differ from the reference", ps.name, n, len(c.ref))
		}
	}
}
