package sched

import (
	"context"
	"fmt"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// SerialGrain is the per-node work W below which run.Execute walks a run
// instead of handing it to the work-stealing pool: Walk or WalkDynamic
// runs the pass on the caller's goroutine, with no worker goroutines,
// deques, pending counters or wake channel (Cilk's serial elision, Frigo,
// Leiserson & Randall, PLDI 1998). Below it a node costs less than what
// the pool spends to schedule it, so P workers lose to one.
//
// It is read off BenchmarkGrid at -cpu 2 -count 3 on 2 vCPUs, medians in
// µs per pass, the walk against P=2 (the table is in CHANGES.md); a static
// row's walk is its serial column, dynamic's its walk column. At W=50 the
// walk wins every row: dynamic 3381 against 3707, pipeline 1576 against
// 2400. At W=100 the pool wins dynamic, 4437 against a walk of 4564. A
// scan of dynamic at W=60, 70, 80 and 90 reads P=2 4809, 4468, 4617 and
// 4667 against walks of 4385, 4402, 4676 and 4624: the walk wins at 60,
// and the two tie from 70 up. The grain sits at 60, below every row's
// crossover (random's and pipeline's lie between W=100 and W=200, and
// chain's pool never beats its walk), so no run walks where two workers
// would have beaten one. It was measured only at P=2 on a 2-vCPU host: the
// grain holds whatever width a run asks for, and whether the walk still
// wins at W=50 against P=4 or more on a wider host is unmeasured.
const SerialGrain = 60

// pollEvery returns how many nodes a sweep runs between polls of its
// context: it polls before nodes 0, pollEvery, 2*pollEvery and so on,
// counting down to each poll rather than dividing per node. The poll
// follows a spin-iteration budget, not a fixed node stride: with heavy
// per-node work a 64-node stride would mean seconds between checks,
// defeating prompt cancellation and shutdown force-cancel.
func pollEvery(work int) int {
	const pollBudget = 1 << 20
	if work <= 0 {
		return 64
	}
	return min(max(pollBudget/work, 1), 64)
}

// sweep evaluates f over d in topological order on one goroutine, work
// being f's per-node spin iterations, which set how often it polls ctx. It
// is both a workload's serial reference (Serial passes its own hook) and
// the static walk (Walk passes the run's). A forward graph is swept by ID,
// with no order array; any other in its Kahn order. Each node is one call
// of f, which reads its parents' values in place in the sweep's own array.
// The values come from the free list ReleaseValues returns them to,
// uncleared: the sweep writes every node's before any child reads it. A
// cancelled sweep releases them and returns ctx's cause.
func sweep(ctx context.Context, d *dag.DAG, work int, f Compute) ([]uint64, error) {
	values := nodeValues.Get(d.NumNodes())
	var order []dag.NodeID
	if !d.Forward() {
		order = d.TopoOrder()
	}
	poll, left := pollEvery(work), 1 // left: nodes up to the next poll
	for i := range values {
		if left--; left == 0 {
			if ctx.Err() != nil {
				nodeValues.Put(values)
				return nil, context.Cause(ctx)
			}
			left = poll
		}
		u := dag.NodeID(i)
		if order != nil {
			u = order[i]
		}
		values[u] = f(u, d.Parents(u), values)
	}
	return values, nil
}

// Walk executes f once per node of d, in topological order, on the
// caller's goroutine: the pass Executor.Run makes, elided to one sweep. work
// is the per-node spin iterations f folds in; it only sets how often the
// walk polls ctx. It returns the values indexed by NodeID, which
// ReleaseValues takes back, or ctx's cause if ctx is done first. A walked
// node counts in NodesExecuted; a walk steals nothing.
func Walk(ctx context.Context, d *dag.DAG, work int, f Compute) ([]uint64, error) {
	values, err := sweep(ctx, d, work, f)
	if err == nil {
		nodesExecuted.Add(int64(len(values)))
	}
	return values, err
}

// WalkDynamic executes f over every node g discovers, on the caller's
// goroutine: the pass Executor.Run makes over g, elided to one sweep. It visits node
// IDs in order and expands each node after it runs, so it needs IDs that
// are topological — every parent below its child, as the built-in expander
// numbers them — and fails closed on a parent that is not. An expansion
// error, the growth bound's included, ends the walk with that error, and a
// done ctx with its cause; either way the walk's values go back to the free
// list. work is as for Walk.
func WalkDynamic(ctx context.Context, g DynamicGraph, work int, f Compute) ([]uint64, error) {
	values := nodeValues.Get(g.NumNodes())
	fail := func(err error) ([]uint64, error) {
		nodeValues.Put(values)
		return nil, err
	}
	poll, left := pollEvery(work), 1 // left: nodes up to the next poll
	for v := 0; v < g.NumNodes(); v++ {
		if left--; left == 0 {
			if ctx.Err() != nil {
				return fail(context.Cause(ctx))
			}
			left = poll
		}
		if v == len(values) {
			// An expansion grew the graph past the values: a free list's
			// slice has a power-of-two capacity, so the array is replaced
			// only when that is outgrown, at most once per doubling.
			n := g.NumNodes()
			if n > cap(values) {
				grown := nodeValues.Get(n)
				copy(grown, values)
				nodeValues.Put(values)
				values = grown
			}
			values = values[:n]
		}
		id := dag.NodeID(v)
		parents := g.Parents(id)
		for _, p := range parents {
			if uint(p) >= uint(v) {
				return fail(fmt.Errorf("sched: walk of node %d: parent %d is not below it", v, p))
			}
		}
		values[v] = f(id, parents, values)
		if _, err := g.Expand(id); err != nil {
			return fail(err)
		}
	}
	nodesExecuted.Add(int64(len(values)))
	return values, nil
}
