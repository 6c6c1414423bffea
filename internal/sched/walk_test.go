package sched

import (
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// TestWalkDynamicGrowthBound pins that a walk fails closed at the growth
// bound with the very error the pool reports.
func TestWalkDynamicGrowthBound(t *testing.T) {
	cfg := gen.Config{Shape: gen.Dynamic, Stages: 40, Width: 4, EdgeProb: 0.2, Seed: 2}
	fail := func(walk bool) error {
		dyn, err := gen.NewDynamic(cfg, gen.DynLimits{MaxNodes: 500})
		if err != nil {
			t.Fatal(err)
		}
		if walk {
			_, err = WalkDynamic(context.Background(), dyn, 0, PathCount(0))
		} else {
			_, err = RunDynamic(context.Background(), dyn, 4, PathCount(0))
		}
		return err
	}
	pool, walk := fail(false), fail(true)
	if !errors.Is(walk, gen.ErrGrowthBound) {
		t.Fatalf("WalkDynamic = %v, want gen.ErrGrowthBound", walk)
	}
	if pool == nil || walk.Error() != pool.Error() {
		t.Fatalf("WalkDynamic = %q, RunDynamic = %v", walk, pool)
	}
}

// upwardGraph is a three-node DynamicGraph whose node 1 names parent as its
// parent: a walk, which visits IDs in order, must refuse any parent that is
// not below its child.
type upwardGraph struct{ parent dag.NodeID }

func (upwardGraph) NumNodes() int { return 3 }

func (g upwardGraph) Parents(v dag.NodeID) []dag.NodeID {
	switch v {
	case 1:
		return []dag.NodeID{g.parent}
	case 2:
		return []dag.NodeID{0}
	}
	return nil
}

func (upwardGraph) Expand(dag.NodeID) ([]dag.NodeID, error) { return nil, nil }

func TestWalkDynamicRefusesUpwardParent(t *testing.T) {
	for _, parent := range []dag.NodeID{1, 2, -1} {
		ran := 0
		hook := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 { ran++; return 1 }
		if _, err := WalkDynamic(context.Background(), upwardGraph{parent}, 0, hook); err == nil {
			t.Errorf("parent %d of node 1: walk succeeded", parent)
		}
		if ran != 1 {
			t.Errorf("parent %d of node 1: %d nodes ran, want only node 0", parent, ran)
		}
	}
	if _, err := WalkDynamic(context.Background(), upwardGraph{0}, 0, PathCount(0)); err != nil {
		t.Errorf("parent 0 of node 1: %v", err)
	}
}

// errStopWalk is the cause cancelWalk cancels with.
var errStopWalk = errors.New("stop the walk")

// cancelWalk walks a dynamic chain, one node per level, and cancels the
// walk's context with errStopWalk while node 100 runs. The walk stops at its
// next poll, node 128: at work 0 it polls every 64 nodes. It returns the
// count of nodes the hook ran and the walk's error.
func cancelWalk(t *testing.T) (int, error) {
	t.Helper()
	dyn, err := gen.NewDynamic(gen.Config{Shape: gen.Dynamic, Stages: 1000, Width: 1, Seed: 3}, gen.DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ran := 0
	hook := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
		if ran++; id == 100 {
			cancel(errStopWalk)
		}
		return 1
	}
	vals, err := WalkDynamic(ctx, dyn, 0, hook)
	if vals != nil {
		t.Errorf("cancelled walk returned %d values", len(vals))
	}
	return ran, err
}

func TestWalkDynamicCancel(t *testing.T) {
	ran, err := cancelWalk(t)
	if !errors.Is(err, errStopWalk) {
		t.Fatalf("WalkDynamic = %v, want the context's cause", err)
	}
	if ran != 128 {
		t.Fatalf("%d nodes ran, want 128 (the walk polls every 64)", ran)
	}
}

// TestSweepCancel mirrors TestWalkDynamicCancel for the static sweeps, Walk
// and Serial's, on a 1000-node chain, a forward graph swept by ID: a hook
// cancels the pass while node 100 runs, and the pass stops at its next
// poll. The polls fall before nodes 0, stride, 2*stride and so on, stride
// being pollEvery(work): at work 0 that is 64, so 128 nodes run; at a work
// whose stride is below 64, the count is the first multiple of that stride
// past node 100. work only sets the stride: the hook spins nothing.
func TestSweepCancel(t *testing.T) {
	d, err := gen.ChainDAG(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Forward() {
		t.Fatal("a chain is not forward")
	}
	const heavy = 1 << 16
	if pollEvery(heavy) >= 64 {
		t.Fatalf("pollEvery(%d) = %d, want a stride below 64", heavy, pollEvery(heavy))
	}
	for _, pass := range []struct {
		name string
		run  func(context.Context, *dag.DAG, int, Compute) ([]uint64, error)
	}{{"Walk", Walk}, {"Serial", sweep}} {
		for _, work := range []int{0, heavy} {
			ctx, cancel := context.WithCancelCause(context.Background())
			ran := 0
			hook := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
				if ran++; id == 100 {
					cancel(errStopWalk)
				}
				return 1
			}
			vals, err := pass.run(ctx, d, work, hook)
			cancel(nil)
			if !errors.Is(err, errStopWalk) || vals != nil {
				t.Fatalf("%s at work %d = %d values, %v; want the context's cause", pass.name, work, len(vals), err)
			}
			stride := pollEvery(work)
			if want := (100/stride + 1) * stride; ran != want {
				t.Errorf("%s at work %d: %d nodes ran, want %d (the sweep polls every %d)", pass.name, work, ran, want, stride)
			}
		}
	}
}

// TestWalkKahnOrder pins that a graph with an edge running down the IDs is
// walked in its Kahn order, sources first in ascending ID, not by ID.
func TestWalkKahnOrder(t *testing.T) {
	d, err := dag.FromEdges(4, [][2]dag.NodeID{{3, 0}, {0, 1}, {3, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Forward() {
		t.Fatal("a graph with edge (3,0) is forward")
	}
	var order []dag.NodeID
	hook := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
		order = append(order, id)
		return PathCount(0)(id, parents, values)
	}
	vals, err := Walk(context.Background(), d, 0, hook)
	if err != nil {
		t.Fatal(err)
	}
	if want := []dag.NodeID{3, 0, 1, 2}; !slices.Equal(order, want) || !slices.Equal(d.TopoOrder(), want) {
		t.Errorf("walk order %v, TopoOrder %v; want %v", order, d.TopoOrder(), want)
	}
	if want := []uint64{1, 2, 2, 1}; !slices.Equal(vals, want) {
		t.Errorf("path counts %v, want %v", vals, want)
	}
}
