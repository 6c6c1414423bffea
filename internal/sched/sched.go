// Package sched executes the nodes of a DAG concurrently on a worker pool,
// respecting dependency order: a node becomes runnable the moment its last
// parent retires. The per-node work is a pluggable Workload resolved from a
// registry (see workload.go); the built-in pathcount workload counts
// source→sink paths, hashchain mixes a non-commutative digest along every
// dependency edge, and longestpath computes critical-path depths. Every
// workload carries its own single-threaded reference sweep and verifier, so
// the parallel scheduler is self-checking end to end.
//
// There is one scheduler with two entry points. Executor.Run takes a fully
// built DAG and RunDynamic a DynamicGraph that is discovered while it runs;
// both drive the same work-stealing core (see steal.go), which only ever
// sees a DynamicGraph — a static DAG is the graph whose Expand looks its
// children up and whose NumNodes never changes. Each worker owns a deque of
// ready nodes, pushing and popping LIFO at the tail and stealing half a
// victim's deque FIFO from the head when it runs dry. A retiring node
// publishes all newly-ready children in one batched push and keeps the
// first child to execute directly. Dependency tracking stays lock-free:
// each node carries an atomic pending-parent counter, and whichever worker
// drops a counter to zero owns the child. The counters and values live in
// a node table (see dynamic.go) that grows by fixed-size segments without
// ever moving a slot, so readers take no lock. Atomic RMW on the counter
// plus the deque mutex hand-off establish happens-before between a
// parent's published value and every reader, so runs are clean under the
// race detector.
package sched

import (
	"context"
	"math/bits"
	"runtime"
	"sync/atomic"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// Compute is the per-node work hook. It receives the node's ID and the
// already-computed values of all its parents (in Parents order) and returns
// the node's value. Implementations must be safe for concurrent invocation
// on distinct nodes.
type Compute func(id dag.NodeID, parentValues []uint64) uint64

// Options configures an Executor.
type Options struct {
	// Workers is the pool size. Zero or negative means runtime.NumCPU().
	Workers int
	// SplitWork, when positive, enables intra-node parallelism (Nabbit's
	// UseParallelNodes): the scheduler burns SplitWork spin iterations per
	// node itself, sliced into sub-tasks that idle workers steal off the
	// deques. The Compute hook passed to Run must then be PURE — no
	// emulated work folded in (see SplitComputable) — or the work would be
	// double-counted.
	SplitWork int
}

// Executor runs a Compute hook over every node of one DAG. An Executor is
// reusable: each Run call owns its own scheduling state.
type Executor struct {
	d         *dag.DAG
	workers   int
	splitWork int
	splitMask atomic.Uint64 // worker-participation bits of the latest Run
}

// New returns an Executor for d.
func New(d *dag.DAG, opts Options) *Executor {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	sw := opts.SplitWork
	if sw < 0 {
		sw = 0
	}
	return &Executor{d: d, workers: w, splitWork: sw}
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

// Run executes f once per node, in dependency order, on the work-stealing
// worker pool. It returns the per-node values indexed by NodeID. If ctx is
// cancelled mid-run, workers drain promptly and ctx.Err() is returned.
func (e *Executor) Run(ctx context.Context, f Compute) ([]uint64, error) {
	r := &wsRun{g: staticGraph{e.d}, f: f, splitWork: e.splitWork, chunks: e.splitChunks()}
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
	if e.splitWork <= 0 {
		return 1
	}
	chunks := e.splitWork / minSplitChunk
	if chunks > e.workers {
		chunks = e.workers
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// SplitWorkers reports how many distinct workers (of the first 64)
// executed at least one split-work slice during the Executor's most recent
// Run. Zero when SplitWork was off or every node ran unsliced.
func (e *Executor) SplitWorkers() int {
	return bits.OnesCount64(e.splitMask.Load())
}

// TotalSinkPaths sums the values of all sink nodes — for the pathcount
// workload, the number of distinct source→sink paths through the whole DAG
// (mod 2^64).
func TotalSinkPaths(d *dag.DAG, values []uint64) uint64 {
	var total uint64
	for _, s := range d.Sinks() {
		total += values[s]
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
