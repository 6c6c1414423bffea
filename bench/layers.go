package main

// layers.go is the benchmark's only door into the repository's internal
// packages. Everything else in bench/ talks to dagd over pkg/client and
// pkg/api; every in-process call — the engine workloads' run.Execute, the
// decomposed execution the traced engine pass records spans around, and
// the direct layer probes — lives here, so a refactor of internal/ has one
// file to keep compiling. It may import internal/{run,gen,sched,dispatch,
// store/wal} — and internal/dag for the one type name *dag.DAG — and
// nothing else: not internal/core and not the CountPaths* helpers, both of
// which ROADMAP item 3 deletes.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// execResult is what the benchmark keeps of one execution, whichever path
// produced it.
type execResult struct {
	Nodes      int
	Sink       uint64
	Match      bool
	SerialMs   float64
	ParallelMs float64
}

// toSpec converts the wire spec the workloads are written in to the
// engine's own spec type.
func toSpec(s api.RunSpec, workers int) (run.Spec, error) {
	shape, err := gen.ParseShape(s.Shape)
	if err != nil {
		return run.Spec{}, err
	}
	return run.Spec{
		Config: gen.Config{
			Shape: shape, Nodes: s.Nodes, EdgeProb: s.EdgeProb,
			Stages: s.Stages, Width: s.Width, Seed: s.Seed,
		},
		Workload:     s.Workload,
		Work:         s.Work,
		Workers:      workers,
		ParallelWork: s.ParallelWork,
	}, nil
}

// execute runs one spec through run.Execute, the execution path dagbench
// and dagd share.
func execute(ctx context.Context, s api.RunSpec, workers int) (execResult, error) {
	spec, err := toSpec(s, workers)
	if err != nil {
		return execResult{}, err
	}
	res, err := run.Execute(ctx, spec, workers)
	if err != nil {
		return execResult{}, err
	}
	return execResult{
		Nodes: res.Nodes, Sink: res.SinkPaths, Match: res.Match,
		SerialMs: res.SerialMillis, ParallelMs: res.ParallelMillis,
	}, nil
}

// steps is where one decomposed execution spent its time, as boundaries:
// generate runs from T[0] to T[1], the serial sweep to T[2], the parallel
// pass to T[3], verification to T[4]. The dynamic shape discovers its graph
// during the parallel pass, which therefore really runs first; the
// boundaries are laid out in the static order all the same, with the
// expander's construction and FinalDAG counted as generate.
type steps struct {
	T            [5]time.Time
	SplitWorkers int
}

// executeSteps does what run.Execute does, one layer call at a time, so the
// traced engine pass can time each layer from outside. It must stay in step
// with run.Execute; end-to-end numbers never come from it.
func executeSteps(ctx context.Context, s api.RunSpec, workers int) (execResult, steps, error) {
	spec, err := toSpec(s, workers)
	if err != nil {
		return execResult{}, steps{}, err
	}
	workload, err := sched.LookupWorkload(spec.Workload)
	if err != nil {
		return execResult{}, steps{}, err
	}
	begin := time.Now()
	measure := staticSteps
	if spec.Shape == gen.Dynamic {
		measure = dynamicSteps
	}
	p, err := measure(ctx, spec, workload, workers)
	if err != nil {
		return execResult{}, steps{}, err
	}
	t := time.Now()
	verifyErr := workload.Verify(p.d, p.serial, p.parallel)
	verifyDur := time.Since(t)

	st := steps{SplitWorkers: p.splitWorkers}
	st.layout(begin, p.genDur, p.serialDur, p.parallelDur, verifyDur)
	return execResult{
		Nodes: p.d.NumNodes(), Sink: sched.TotalSinkPaths(p.d, p.serial), Match: verifyErr == nil,
		SerialMs:   float64(p.serialDur.Microseconds()) / 1000,
		ParallelMs: float64(p.parallelDur.Microseconds()) / 1000,
	}, st, nil
}

// passes is one execution's graph, both result vectors and what each layer
// call took.
type passes struct {
	d                              *dag.DAG
	serial, parallel               []uint64
	genDur, serialDur, parallelDur time.Duration
	splitWorkers                   int
}

// staticSteps is run.Execute's path for every shape but dynamic: generate,
// serial reference, parallel pass.
func staticSteps(ctx context.Context, spec run.Spec, workload sched.Workload, workers int) (p passes, err error) {
	t := time.Now()
	if p.d, err = gen.Generate(spec.Config); err != nil {
		return p, err
	}
	p.genDur = time.Since(t)

	t = time.Now()
	if p.serial, err = workload.Serial(ctx, p.d, spec.Work); err != nil {
		return p, err
	}
	p.serialDur = time.Since(t)

	opts := sched.Options{Workers: workers}
	hook := workload.Compute(spec.Work)
	if spec.ParallelWork {
		sc, ok := workload.(sched.SplitComputable)
		if !ok {
			return p, fmt.Errorf("workload %s cannot split per-node work", workload.Name())
		}
		opts.SplitWork = spec.Work
		hook = sc.PureCompute()
	}
	t = time.Now()
	ex := sched.New(p.d, opts)
	if p.parallel, err = ex.Run(ctx, hook); err != nil {
		return p, err
	}
	p.parallelDur = time.Since(t)
	p.splitWorkers = ex.SplitWorkers()
	return p, nil
}

// dynamicSteps is run.Execute's path for the dynamic shape: the parallel
// pass discovers the graph, then the serial reference sweeps the final one.
// Building the expander and freezing the final graph count as generate.
func dynamicSteps(ctx context.Context, spec run.Spec, workload sched.Workload, workers int) (p passes, err error) {
	t := time.Now()
	dyn, err := gen.NewDynamic(spec.Config, gen.DynLimits{MaxNodes: run.MaxNodes, MaxEdges: run.MaxEdges})
	if err != nil {
		return p, err
	}
	p.genDur = time.Since(t)

	t = time.Now()
	if p.parallel, err = sched.RunDynamic(ctx, dyn, workers, workload.Compute(spec.Work)); err != nil {
		return p, err
	}
	p.parallelDur = time.Since(t)

	t = time.Now()
	if p.d, err = dyn.FinalDAG(); err != nil {
		return p, err
	}
	p.genDur += time.Since(t)

	t = time.Now()
	if p.serial, err = workload.Serial(ctx, p.d, spec.Work); err != nil {
		return p, err
	}
	p.serialDur = time.Since(t)
	return p, nil
}

func (st *steps) layout(begin time.Time, durs ...time.Duration) {
	st.T[0] = begin
	for i, d := range durs {
		st.T[i+1] = st.T[i].Add(d)
	}
}

// generateMs times one gen.Generate call.
func generateMs(s api.RunSpec) (float64, error) {
	spec, err := toSpec(s, 0)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if _, err := gen.Generate(spec.Config); err != nil {
		return 0, err
	}
	return ms(time.Since(t)), nil
}

// schedCounters reads the scheduler's process-lifetime tallies: the same
// numbers dagd exports as dagd_sched_nodes_executed_total and
// dagd_sched_steals_total.
func schedCounters() (nodes, steals int64) { return sched.NodesExecuted(), sched.Steals() }

// probeSpec is the smallest run there is, so a dispatcher probe times the
// dispatcher and not the engine.
var probeSpec = run.Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 1}}

// probeDispatchSubmit times Submit → terminal on an embedded dispatcher
// over an in-memory store: admission, tenant queue, dispatcher hand-off and
// the store transitions, with no HTTP and next to no engine work. It
// returns one duration in microseconds per run.
func probeDispatchSubmit(ctx context.Context, n, workers int) ([]float64, error) {
	store := run.NewMemStore()
	d := dispatch.New(store, dispatch.Options{DefaultRunWorkers: workers})
	defer d.Shutdown(ctx)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		r, err := d.Submit(probeSpec)
		if err != nil {
			return nil, fmt.Errorf("dispatch probe: submit: %w", err)
		}
		if r, err = store.Await(ctx, r.ID); err != nil {
			return nil, fmt.Errorf("dispatch probe: await: %w", err)
		}
		if r.State != run.StateSucceeded {
			return nil, fmt.Errorf("dispatch probe: run %s ended %s: %s", r.ID, r.State, r.Error)
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}

// probeLeaseCycle times Submit → Lease → CompleteLease on a lease-mode
// dispatcher: the path a dagworker fleet drives, without the fleet's HTTP.
func probeLeaseCycle(ctx context.Context, n int) ([]float64, error) {
	d := dispatch.New(run.NewMemStore(), dispatch.Options{Remote: true})
	defer d.Shutdown(ctx)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := d.Submit(probeSpec); err != nil {
			return nil, fmt.Errorf("lease probe: submit: %w", err)
		}
		r, err := d.Lease(ctx, "bench-probe", nil, func(string) {})
		if err != nil {
			return nil, fmt.Errorf("lease probe: lease: %w", err)
		}
		if _, err := d.CompleteLease(r.ID, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
			return nil, fmt.Errorf("lease probe: complete: %w", err)
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}

// probeWAL drives a fresh fsync-on WAL store in dir from several goroutines,
// each taking runs through Create → Begin → Finish: the three durable
// appends dagd -fsync puts on every run. It returns each append's latency in
// microseconds and the aggregate appends per second.
func probeWAL(dir string, goroutines, runsEach int) (appendUs []float64, appendsPerS float64, err error) {
	store, _, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		return nil, 0, fmt.Errorf("wal probe: %w", err)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]float64, 0, 3*runsEach)
			var err error
			for i := 0; i < runsEach && err == nil; i++ {
				t := time.Now()
				var r run.Run
				if r, err = store.Create(probeSpec); err != nil {
					break
				}
				local = append(local, us(time.Since(t)))
				t = time.Now()
				if _, err = store.Begin(r.ID, t, "", nil); err != nil {
					break
				}
				local = append(local, us(time.Since(t)))
				t = time.Now()
				_, err = store.Finish(r.ID, &run.Result{Match: true}, nil)
				local = append(local, us(time.Since(t)))
			}
			mu.Lock()
			defer mu.Unlock()
			appendUs = append(appendUs, local...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, 0, fmt.Errorf("wal probe: %w", firstErr)
	}
	return appendUs, float64(len(appendUs)) / wall.Seconds(), nil
}

// allocsPerRun executes specs once each from the calling goroutine alone
// and returns the heap allocations and bytes one run.Execute costs on
// average, from runtime.MemStats deltas.
func allocsPerRun(ctx context.Context, specs []api.RunSpec, workers int) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range specs {
		if _, err := execute(ctx, s, workers); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(specs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
