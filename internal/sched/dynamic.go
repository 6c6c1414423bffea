package sched

import (
	"context"
	"runtime"
	"sync/atomic"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// DynamicGraph is a DAG discovered while it executes (the Nabbit dynamic
// mode). The scheduler learns a node's successors only by calling Expand
// after executing it; the graph may grow on every expansion.
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

// staticGraph is a fully built DAG seen as a DynamicGraph: every node is
// known before the run starts, and expanding one only looks its children up.
type staticGraph struct{ *dag.DAG }

func (s staticGraph) Expand(u dag.NodeID) ([]dag.NodeID, error) { return s.Children(u), nil }

// RunDynamic executes f over every node g discovers, in dependency order,
// on a work-stealing pool of the given size (zero or negative means
// runtime.NumCPU()). It returns the per-node values of the final graph,
// indexed by NodeID. If any expansion fails — typically the growth bound —
// the run winds down promptly and the expansion error is returned.
func RunDynamic(ctx context.Context, g DynamicGraph, workers int, f Compute) ([]uint64, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return (&wsRun{g: g, f: f}).run(ctx, workers)
}

// segSize is how many nodes one growth segment of the node table holds.
const segSize = 1024

// segment is one fixed-size block of node slots for nodes discovered while
// the run executes. A segment never moves once allocated, so a pointer into
// it stays valid for the rest of the run.
type segment struct {
	values  [segSize]uint64
	pending [segSize]atomic.Int32
}

// results returns the values of the first n nodes as one slice: the flat
// part itself when the graph never grew, a copy with the segments appended
// otherwise.
func (r *wsRun) results(n int) []uint64 {
	if n == len(r.values) {
		return r.values
	}
	out := make([]uint64, n)
	done := copy(out, r.values)
	for _, seg := range *r.dir.Load() {
		done += copy(out[done:], seg.values[:])
	}
	return out
}

// slot locates node id in the table. A worker holds an ID only if it, or
// the worker that handed it the node (by keeping it, or through a deque
// mutex), returned from an ensure that covers the ID — so the directory it
// loads here already holds the node's segment, without a lock.
func (r *wsRun) slot(id dag.NodeID) (*uint64, *atomic.Int32) {
	if int(id) < len(r.values) {
		return &r.values[id], &r.pending[id]
	}
	i := int(id) - len(r.values)
	seg := (*r.dir.Load())[i/segSize]
	return &seg.values[i%segSize], &seg.pending[i%segSize]
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
	var dir []*segment
	if p := r.dir.Load(); p != nil {
		dir = *p
	}
	if need := (n - len(r.values) + segSize - 1) / segSize; need > len(dir) {
		grown := make([]*segment, need)
		for i := copy(grown, dir); i < need; i++ {
			grown[i] = new(segment)
		}
		r.dir.Store(&grown)
	}
	for v := old; v < n; v++ {
		_, pending := r.slot(dag.NodeID(v))
		pending.Store(int32(len(r.g.Parents(dag.NodeID(v)))))
	}
	r.size.Store(int64(n))
}
