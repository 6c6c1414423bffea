// Package sched executes the nodes of a DAG concurrently on a worker pool,
// respecting dependency order: a node becomes runnable the moment its last
// parent retires. The per-node work is a Workload looked up by name in a
// fixed table (see workload.go): the pathcount workload counts
// source→sink paths, hashchain mixes a non-commutative digest along every
// dependency edge, and longestpath computes critical-path depths. Every
// workload carries its own single-threaded reference sweep and verifier, so
// the parallel scheduler is self-checking end to end.
//
// There is one scheduler with one entry: New takes a DynamicGraph, either a
// fully built *dag.DAG — the graph whose Expand looks its children up and
// whose NumNodes never changes — or a graph discovered while it runs, and
// Executor.Run drives the work-stealing core (see steal.go) over it with
// the same Options; RunDynamic is that call in one line. Each worker owns a
// deque of ready nodes, pushing and popping LIFO at the tail and stealing
// half a victim's deque FIFO from the head when it runs dry. A retiring node
// publishes all newly-ready children in one batched push and keeps the
// first child to execute directly. Dependency tracking stays lock-free:
// each node carries a pending-parent counter, filled with plain stores
// before any worker starts and accessed atomically after. A retiring parent
// owns a child if an atomic load of its counter reads 1 (every other parent
// has already decremented it, so a single-parent child costs no
// read-modify-write at all), or else if its own decrement reaches zero. The
// counters and values live in a node table (see dynamic.go) that grows by
// fixed-size segments without ever moving a slot, so readers take no lock.
// Retired nodes are counted in a per-worker tally that reaches the run's
// shared total only when the worker runs dry and when it exits, so no
// cache line is written by every worker on every node; the flush that
// brings the total to the table's size completes the run. A static DAG's
// adjacency is read straight from its CSR arrays, and a one-worker run
// executes on the caller's goroutine. The counter protocol plus the deque
// mutex hand-off establish happens-before between a parent's published
// value and every reader (the memory-model note in steal.go), so runs are
// clean under the race detector.
//
// A pool only pays when a node costs more than scheduling it. Walk and
// WalkDynamic are the pass elided to one sweep on the caller's goroutine,
// with no workers, deques, counters or wake channel (Cilk's serial
// elision), and run.Execute walks every run whose per-node work is below
// SerialGrain, a constant measured on BenchmarkGrid. Executor.Run keeps
// its fixed width, so BenchmarkGrid still measures the pool at P = 1, 2
// and 4 whatever the work.
//
// A node is one call of the Compute hook, which reads its parents' values
// in place: the sweeps and the pool over a built DAG hand it the graph's
// parent list and their own values table, with no copy. Only the pool over
// a discovered graph, whose table is segmented, gathers the values first.
// A sweep visits a forward graph — every generated one — by ID, since the
// graph keeps no order array, and polls its context on a countdown, not a
// per-node division.
//
// Split work (Nabbit UseParallelNodes, Options.SplitWork) runs on either
// kind of graph. A split node's state is its own while its slices run: the
// first worker to take the node takes a small record, the outstanding-slice
// count, from its free list, and the node's slice items point at it; the
// worker whose decrement reaches zero finalizes the node and keeps the
// record. No split state is sized by the node table, and a node found by
// expansion splits like any other.
package sched

import (
	"context"
	"math/bits"
	"runtime"
	"sync/atomic"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// Compute is the per-node work hook. It returns node id's value as a
// function of values[p] for each p in parents, taken in order: the node's
// parents in Parents order, every one already computed. It reads the
// parents' values in place, in the caller's table, so it may read no other
// slot of values — the others may be unwritten or being written by another
// worker — and it never writes values: the caller stores what it returns.
// Implementations must be safe for concurrent invocation on distinct nodes,
// and a workload's hook may run beside its Serial on the same DAG, the same
// node included.
type Compute func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64

// Options configures an Executor.
type Options struct {
	// Workers is the pool size. Zero or negative means runtime.NumCPU().
	Workers int
	// SplitWork, when positive, enables intra-node parallelism (Nabbit's
	// UseParallelNodes) on either kind of graph: the scheduler burns
	// SplitWork spin iterations per node itself, sliced into sub-tasks that
	// idle workers steal off the deques, and a split node's slices share one
	// small record, not a slot of a node-sized table, so a node an expansion
	// discovers splits like any other. The Compute hook passed to Run must
	// then be PURE — no emulated work folded in (Workload.PureCompute) — or
	// the work would be double-counted.
	SplitWork int
}

// Executor runs a Compute hook over every node of one graph. An Executor
// is reusable: each Run call owns its own scheduling state.
type Executor struct {
	g         DynamicGraph
	workers   int
	splitWork int
	splitMask atomic.Uint64 // worker-participation bits of the latest Run
}

// New returns an Executor for g: a built *dag.DAG, whose Expand only looks
// its children up, or a graph discovered while it runs. It is the pool's
// one entry; RunDynamic is New and Run in one call.
func New(g DynamicGraph, opts Options) *Executor {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return &Executor{g: g, workers: w, splitWork: max(opts.SplitWork, 0)}
}

// Process-lifetime execution tallies, exposed through NodesExecuted and
// Steals for the observability layer (wired up as func-backed counters on
// the dagd metrics registry).
var (
	nodesExecuted atomic.Int64
	stealsTotal   atomic.Int64
)

// NodesExecuted returns the total DAG nodes retired by every Executor.Run
// in this process.
func NodesExecuted() int64 { return nodesExecuted.Load() }

// Steals returns the total successful work-stealing operations (one
// stealHalf that found work) across every Executor.Run in this process.
func Steals() int64 { return stealsTotal.Load() }

// Run executes f once per node the graph has and discovers, in dependency
// order, on the work-stealing worker pool. It returns the per-node values of
// the final graph, indexed by NodeID. If ctx is cancelled mid-run, workers
// drain promptly and ctx's cause is returned; if an expansion fails —
// typically the growth bound — the run winds down and returns that error.
func (e *Executor) Run(ctx context.Context, f Compute) ([]uint64, error) {
	r := &wsRun{g: e.g, f: f, splitWork: e.splitWork, chunks: e.splitChunks()}
	values, err := r.run(ctx, e.workers)
	e.splitMask.Store(r.splitMask.Load())
	return values, err
}

// splitChunks decides how many slices each node's emulated work splits
// into: enough that every worker could take one, but never slices smaller
// than minSplitChunk iterations (below that the publish/steal overhead
// dwarfs the work being parallelized).
func (e *Executor) splitChunks() int {
	const minSplitChunk = 4096
	return min(max(e.splitWork/minSplitChunk, 1), e.workers)
}

// SplitWorkers reports how many distinct workers (of the first 64)
// executed at least one split-work slice during the Executor's most recent
// Run. Zero when SplitWork was off or every node ran unsliced.
func (e *Executor) SplitWorkers() int {
	return bits.OnesCount64(e.splitMask.Load())
}

// TotalSinkPaths sums the values of all sink nodes — for the pathcount
// workload, the number of distinct source→sink paths through the whole DAG
// (mod 2^64). It reads each node's out-degree rather than collect Sinks.
func TotalSinkPaths(d *dag.DAG, values []uint64) uint64 {
	var total uint64
	for v := range d.NumNodes() {
		if d.OutDegree(dag.NodeID(v)) == 0 {
			total += values[v]
		}
	}
	return total
}

// spin burns w iterations of integer work, emulating per-node compute cost.
func spin(w int) {
	if w <= 0 {
		return
	}
	var x uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < w; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	// xorshift64 never maps a nonzero state to zero, but the compiler cannot
	// prove that, so this branch pins the loop against dead-code elimination
	// without touching shared memory. (The previous implementation folded x
	// into a global atomic sink, which serialized every worker on one cache
	// line per node — the emulated-work knob itself became the bottleneck.)
	if x == 0 {
		panic("sched: xorshift64 state collapsed to zero")
	}
}
