package run

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// ErrMismatch is returned (wrapped) by Execute when the parallel results
// diverge from the workload's serial reference.
var ErrMismatch = errors.New("run: parallel results diverge from serial reference")

// lookupWorkload is how Execute resolves a spec's workload; tests wrap it
// to reach Execute with workloads the table does not hold.
var lookupWorkload = sched.LookupWorkload

// Execute performs one run end to end: resolve the workload by name,
// generate the DAG from spec, sweep the workload's serial reference, run the
// concurrent scheduler with the workload's Compute hook, and verify the two
// against each other. It is the single execution path shared by the dagbench
// CLI and the dagd dispatcher, so the two surfaces can never drift. Both
// kinds of graph, built and discovered, reach the pool through its one
// entry, sched.New, with the same hook and Options.
//
// On every shape but dynamic the reference sweeps on a goroutine of its own
// while the parallel pass runs on the caller's, so a run's wall time is the
// longer pass, not the sum. Both passes watch ctx, and Execute joins the
// reference before it verifies or returns, on every path; the pass's error
// is reported before the reference's. The graph's depth and its sink total
// are the reference's to compute: on a static shape its goroutine takes
// them once Serial returns, so they overlap the parallel pass too; on the
// dynamic shape they follow the reference, which follows the pass.
//
// Execute owns every array of the run — the graph's CSR (and order, if it
// has one), the parallel values and the reference's — and returns them to
// the free lists they came from (see internal/slab) once the result is
// built, on every path after the join. That is the engine's one ownership rule: nothing that
// outlives Execute may hold a *dag.DAG or a slice of the run's, and a Result
// holds only scalars. Callers of the layers below (Executor.Run, RunDynamic,
// gen.Generate) that never release simply leave their arrays to the
// garbage collector.
//
// defaultWorkers is used when spec.Workers is 0 (<= 0 falls back to
// NumCPU). A run whose per-node work is below sched.SerialGrain is walked
// whatever its worker count: its pass is one sweep on the caller's
// goroutine (sched.Walk, sched.WalkDynamic), because there a node costs
// less than the pool spends to schedule it, and its Result reports one
// worker. At or above the grain the pass runs on the work-stealing pool at
// the requested width. Either way the pass goes through the workload's
// Compute hook and the reference checks it.
//
// On a verification mismatch the measured Result (with Match false) is
// returned alongside an error wrapping ErrMismatch; on unknown workloads,
// generation, or cancellation errors the Result is nil. Execute does not
// call spec.Validate — admission policy belongs to the caller.
func Execute(ctx context.Context, spec Spec, defaultWorkers int) (*Result, error) {
	workload, err := lookupWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	walk := spec.Work < sched.SerialGrain
	if walk {
		workers = 1
	}
	// parallel_work (Nabbit UseParallelNodes), on every shape: the
	// scheduler burns the per-node work itself, sliced across idle workers,
	// and finalizes each node with the workload's pure hook. The serial
	// reference is untouched — spin never feeds the recurrence — so Verify
	// still compares like with like. A walked run has no idle workers to
	// slice for.
	opts := sched.Options{Workers: workers}
	hook := workload.Compute(spec.Work)
	if spec.ParallelWork && !walk {
		opts.SplitWork = spec.Work
		hook = workload.PureCompute()
	}
	if spec.Shape == gen.Dynamic {
		return executeDynamic(ctx, spec, workload, opts, hook, walk)
	}
	d, err := gen.Generate(spec.Config)
	if err != nil {
		return nil, err
	}

	// The DAG is read-only to both passes, and Workload's contract lets
	// Serial run beside the hook, so the only shared state is ref, which the
	// join below orders.
	var ref reference
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		ref = sweep(ctx, workload, d, spec.Work)
	}()
	t1 := time.Now()
	var parallel []uint64
	if walk {
		parallel, err = sched.Walk(ctx, d, spec.Work, hook)
	} else {
		parallel, err = sched.New(d, opts).Run(ctx, hook)
	}
	parallelDur := time.Since(t1)
	<-joined
	defer release(d, parallel, ref.values)
	if err != nil {
		return nil, err
	}
	if ref.err != nil {
		return nil, ref.err
	}

	return buildResult(workload, spec, d, workers, ref, parallel, parallelDur)
}

// reference is a serial sweep's outcome: the values, Serial's own wall time,
// and what the result reads off the graph with them.
type reference struct {
	values    []uint64
	err       error
	dur       time.Duration
	depth     int
	sinkPaths uint64
}

// sweep runs the workload's serial reference over d, timing Serial alone,
// then takes d's depth and its sink total from the values.
func sweep(ctx context.Context, workload sched.Workload, d *dag.DAG, work int) reference {
	t0 := time.Now()
	values, err := workload.Serial(ctx, d, work)
	ref := reference{values: values, err: err, dur: time.Since(t0)}
	if err == nil {
		ref.depth = d.Depth()
		ref.sinkPaths = sched.TotalSinkPaths(d, values)
	}
	return ref
}

// executeDynamic runs a dynamic-shape spec: the graph is discovered while
// the parallel pass executes (bounded by the service growth caps), and the
// serial reference then sweeps the *final* graph — it necessarily runs
// after the parallel pass, not beside it as on the static shapes.
func executeDynamic(ctx context.Context, spec Spec, workload sched.Workload, opts sched.Options, hook sched.Compute, walk bool) (*Result, error) {
	dyn, err := gen.NewDynamic(spec.Config, gen.DynLimits{MaxNodes: MaxNodes, MaxEdges: MaxEdges})
	if err != nil {
		return nil, err
	}
	defer dyn.Release()
	t1 := time.Now()
	var parallel []uint64
	if walk {
		parallel, err = sched.WalkDynamic(ctx, dyn, spec.Work, hook)
	} else {
		parallel, err = sched.New(dyn, opts).Run(ctx, hook)
	}
	if err != nil {
		return nil, err
	}
	parallelDur := time.Since(t1)

	d, err := dyn.FinalDAG()
	if err != nil {
		sched.ReleaseValues(parallel)
		return nil, err
	}
	ref := sweep(ctx, workload, d, spec.Work)
	defer release(d, parallel, ref.values)
	if ref.err != nil {
		return nil, ref.err
	}

	return buildResult(workload, spec, d, opts.Workers, ref, parallel, parallelDur)
}

// release returns a finished run's graph and both passes' values to the
// free lists. The final DAG of a dynamic run borrows the expander's parent
// arrays, which its Release leaves alone: the expander's own Release, after
// this one, returns them.
func release(d *dag.DAG, parallel, serial []uint64) {
	d.Release()
	sched.ReleaseValues(parallel)
	sched.ReleaseValues(serial)
}

func buildResult(workload sched.Workload, spec Spec, d *dag.DAG, workers int,
	ref reference, parallel []uint64, parallelDur time.Duration) (*Result, error) {
	verifyErr := workload.Verify(d, ref.values, parallel)
	res := &Result{
		Workload:       workload.Name(),
		Nodes:          d.NumNodes(),
		Edges:          d.NumEdges(),
		Depth:          ref.depth,
		Workers:        workers,
		SinkPaths:      ref.sinkPaths,
		Match:          verifyErr == nil,
		SerialMillis:   float64(ref.dur.Microseconds()) / 1000,
		ParallelMillis: float64(parallelDur.Microseconds()) / 1000,
	}
	// A zero/near-zero duration (trivial DAG, coarse clock) would make the
	// ratio 0/0 or +Inf; leave Speedup 0 there — Match is the correctness
	// signal, not Speedup.
	if ref.dur > 0 && parallelDur > 0 {
		res.Speedup = float64(ref.dur) / float64(parallelDur)
	}
	if verifyErr != nil {
		return res, fmt.Errorf("%w: %v (workload %s on %d-node %s dag, seed %d)",
			ErrMismatch, verifyErr, workload.Name(), d.NumNodes(), spec.Shape, spec.Seed)
	}
	return res, nil
}
