package sched

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// Workload bundles everything the engine needs to run one kind of per-node
// computation over a DAG: a name, the concurrent Compute hook and its pure
// counterpart, a single-threaded reference sweep, and a verifier comparing
// the two. The scheduler itself is workload-agnostic; the run layer resolves
// a workload by name at admission time and dispatches through this
// interface. The built-ins are a fixed table; tests substitute fakes
// through the interface.
type Workload interface {
	SplitComputable
	// Name is the table key ("pathcount", "hashchain", ...).
	Name() string
	// Compute returns the per-node hook with work busy-iterations of
	// emulated compute folded in; at work <= 0 it is the recurrence itself.
	// The returned hook must be safe for concurrent invocation on distinct
	// nodes.
	Compute(work int) Compute
	// Serial computes the reference values with a single-threaded sweep in
	// topological order, polling ctx for cooperative cancellation. It may
	// run at the same time as the Compute hook's calls on the same DAG,
	// the same node included, so neither may write state the other reads.
	Serial(ctx context.Context, d *dag.DAG, work int) ([]uint64, error)
	// Verify checks the parallel values against the serial reference and
	// returns a descriptive error on the first divergence.
	Verify(d *dag.DAG, serial, parallel []uint64) error
}

// SplitComputable is the part of Workload behind the parallel_work spec
// knob (Nabbit UseParallelNodes): PureCompute returns the hook with NO spin
// folded in, and the scheduler then burns the work itself via
// Options.SplitWork, sliced across idle workers, and finalizes the node with
// the pure hook. Every workload is a pure recurrence, so every workload
// splits.
type SplitComputable interface {
	PureCompute() Compute
}

// DefaultWorkload is the workload assumed when a caller names no workload.
const DefaultWorkload = "pathcount"

// workloads is the built-in table, sorted by name: pathcount is the
// original source→sink path counter; hashchain stresses ordering
// correctness with a non-commutative mix; and longestpath computes each
// node's critical-path depth.
var workloads = [...]*funcWorkload{
	{name: "hashchain", fn: hashChainFn},
	{name: "longestpath", fn: longestPathFn},
	{name: "pathcount", fn: pathCountFn},
}

// LookupWorkload resolves a workload name; the empty string resolves to
// DefaultWorkload. Unknown names report the known set, so admission errors
// tell the caller what would have been accepted.
func LookupWorkload(name string) (Workload, error) {
	if name == "" {
		name = DefaultWorkload
	}
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown workload %q (known: %s)",
		name, strings.Join(Workloads(), ", "))
}

// Workloads returns the sorted names of the built-in workloads.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// funcWorkload adapts a workload's pure per-node recurrence, a Compute
// hook reading its parents' values in place, into a full Workload: Compute
// folds in spin()-emulated per-node work, Serial is a cancellable
// topological sweep, and Verify compares the two passes' values in bulk.
// Every built-in workload is one.
type funcWorkload struct {
	name string
	fn   Compute
}

func (w *funcWorkload) Name() string { return w.name }

// Compute is the recurrence itself at work <= 0, so a sweep at work 0 makes
// one indirect call per node; otherwise it spins first.
func (w *funcWorkload) Compute(work int) Compute {
	fn := w.fn
	if work <= 0 {
		return fn
	}
	return func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
		spin(work)
		return fn(id, parents, values)
	}
}

// PureCompute is the recurrence with no emulated work, for split-work runs
// where the scheduler spins on the workload's behalf. The serial reference
// still spins inline, so split and unsplit runs verify against the same
// values (spin never feeds the recurrence).
func (w *funcWorkload) PureCompute() Compute { return w.fn }

func (w *funcWorkload) Serial(ctx context.Context, d *dag.DAG, work int) ([]uint64, error) {
	return sweep(ctx, d, work, w.Compute(work))
}

func (w *funcWorkload) Verify(d *dag.DAG, serial, parallel []uint64) error {
	if len(serial) != len(parallel) {
		return fmt.Errorf("sched: workload %s: serial computed %d values, parallel %d",
			w.name, len(serial), len(parallel))
	}
	if slices.Equal(serial, parallel) {
		return nil
	}
	// The bulk compare failed, so some node diverges: name the first.
	i := 0
	for serial[i] == parallel[i] {
		i++
	}
	return fmt.Errorf("sched: workload %s: node %d: parallel value %#x != serial reference %#x",
		w.name, i, parallel[i], serial[i])
}

// pathCountFn counts distinct source→any-node paths: sources get 1, every
// other node the sum of its parents' counts, in wrapping uint64 arithmetic.
func pathCountFn(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
	if len(parents) == 0 {
		return 1
	}
	var sum uint64
	for _, p := range parents {
		sum += values[p]
	}
	return sum
}

// hashChainFn folds the parents' digests into the node's own seed with a
// multiply-xor-rotate mix. The mix is deliberately non-commutative and
// non-associative: reordering parents changes the digest, so a scheduler
// that ever presented parent values out of Parents order would be caught
// by the serial-vs-parallel self-check, not just one that dropped a
// dependency edge (which pathcount already catches).
func hashChainFn(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
	h := (uint64(id) + 1) * 0x9e3779b97f4a7c15 // splitmix-style per-node seed
	h ^= h >> 29
	for _, p := range parents {
		h = (h ^ values[p]) * 0x100000001b3
		h = bits.RotateLeft64(h, 23)
	}
	return h
}

// longestPathFn computes the critical-path depth: sources are 0, every
// other node max(parents)+1. The sink values of a pipeline DAG equal the
// graph's Depth(), which doubles as a cheap structural cross-check.
func longestPathFn(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
	if len(parents) == 0 {
		return 0
	}
	var m uint64
	for _, p := range parents {
		m = max(m, values[p])
	}
	return m + 1
}
