package sched

import (
	"context"
	"sync/atomic"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/slab"
)

// DynamicGraph is a DAG discovered while it executes (the Nabbit dynamic
// mode). The scheduler learns a node's successors only by calling Expand
// after executing it; the graph may grow on every expansion. A built
// *dag.DAG is one too, whose Expand discovers nothing.
//
// Contract: node IDs are dense in [0, NumNodes()). Expand(u) returns u's
// successors, materializing them (and possibly siblings) as a side effect —
// after it returns, NumNodes covers every returned ID and Parents is final
// for all of them. Expand must be deterministic with respect to the graph
// structure (not the call order) so the final graph can be re-swept
// serially for verification, and must return an error — gen.ErrGrowthBound
// wrapped, for the built-in expander — when growth would exceed its caps.
type DynamicGraph interface {
	NumNodes() int
	Parents(v dag.NodeID) []dag.NodeID
	Expand(u dag.NodeID) ([]dag.NodeID, error)
}

// static returns the run's graph as the DAG it is, or nil if it can grow.
// The core asks once per run and once per worker, outside the node loop: a
// static DAG's adjacency is then read straight from its CSR arrays, and as
// its table never grows, its nodes skip Expand, NumNodes and ensure.
func (r *wsRun) static() *dag.DAG {
	d, _ := r.g.(*dag.DAG)
	return d
}

// RunDynamic is New(g, Options{Workers: workers}).Run(ctx, f): the pool's
// one entry, kept as a call for the benchmark's engine layer.
func RunDynamic(ctx context.Context, g DynamicGraph, workers int, f Compute) ([]uint64, error) {
	return New(g, Options{Workers: workers}).Run(ctx, f)
}

// The free lists of a run's node table: the values (the flat part, the
// segments' and the results) and the pending counters.
var (
	nodeValues slab.List[uint64]
	counters   slab.List[int32]
)

// ReleaseValues returns per-node values that Executor.Run, RunDynamic or a
// built-in workload's Serial returned to the free list they came from.
// Neither the slice nor any slice of its array may be used afterwards.
func ReleaseValues(values []uint64) { nodeValues.Put(values) }

// segSize is how many nodes one growth segment of the node table holds: a
// class size of the free lists, so a segment's arrays fit theirs exactly.
const segSize = 1024

// segment is one fixed-size block of node slots for nodes discovered while
// the run executes. A segment's arrays never move once taken, so a pointer
// into them stays valid for the rest of the run. Its counters are only ever
// accessed atomically.
type segment struct {
	values  []uint64 // segSize slots each
	pending []int32
}

// results returns the values of the first n nodes as one slice: the flat
// part itself when the graph never grew, a copy with the segments appended
// otherwise. The caller owns it; release leaves it alone.
func (r *wsRun) results(n int) []uint64 {
	if n == len(r.values) {
		out := r.values
		r.values = nil
		return out
	}
	out := nodeValues.Get(n)
	done := copy(out, r.values)
	for _, seg := range *r.dir.Load() {
		done += copy(out[done:], seg.values)
	}
	return out
}

// release returns the node table to the free lists once every worker has
// exited: the counters, the segments, and the flat values unless results
// handed them out.
func (r *wsRun) release() {
	nodeValues.Put(r.values)
	counters.Put(r.pending)
	if p := r.dir.Load(); p != nil {
		for _, seg := range *p {
			nodeValues.Put(seg.values)
			counters.Put(seg.pending)
		}
	}
	r.values, r.pending = nil, nil
	r.dir.Store(nil)
}

// value and counter locate node id's slots in the table. A worker holds an
// ID only if it, or the worker that handed it the node (by keeping it, or
// through a deque mutex), returned from an ensure that covers the ID — so
// the directory segmentOf loads already holds the node's segment, without a
// lock.
func (r *wsRun) value(id dag.NodeID) *uint64 {
	if int(id) < len(r.values) {
		return &r.values[id]
	}
	seg, i := r.segmentOf(id)
	return &seg.values[i]
}

func (r *wsRun) counter(id dag.NodeID) *int32 {
	if int(id) < len(r.pending) {
		return &r.pending[id]
	}
	seg, i := r.segmentOf(id)
	return &seg.pending[i]
}

// segmentOf returns the segment holding a node past the flat part, and the
// node's index in it.
func (r *wsRun) segmentOf(id dag.NodeID) (*segment, int) {
	i := int(id) - len(r.values)
	return &(*r.dir.Load())[i/segSize], i % segSize
}

// ensure grows the node table to cover n nodes, initializing each new
// node's pending counter from its (final, per the DynamicGraph contract)
// parent list. A worker calls it after every Expand and before touching any
// child counter, so a counter is always initialized before a decrement can
// reach it. Safe to call concurrently; callers that find the table already
// large enough return without the lock.
func (r *wsRun) ensure(n int) {
	if int(r.size.Load()) >= n {
		return
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	old := int(r.size.Load())
	if old >= n {
		return
	}
	var dir []segment
	if p := r.dir.Load(); p != nil {
		dir = *p
	}
	if need := (n - len(r.values) + segSize - 1) / segSize; need > len(dir) {
		grown := make([]segment, need)
		for i := copy(grown, dir); i < need; i++ {
			grown[i] = segment{nodeValues.Get(segSize), counters.Get(segSize)}
		}
		r.dir.Store(&grown)
	}
	for v := old; v < n; v++ {
		atomic.StoreInt32(r.counter(dag.NodeID(v)), int32(len(r.g.Parents(dag.NodeID(v)))))
	}
	r.size.Store(int64(n))
}
