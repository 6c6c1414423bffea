package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// numWindows is how many equal windows a timed phase is cut into; a rate is
// reported as the median over them.
const numWindows = 5

// warmupCycles is how many cycles an engine workload runs before timing.
const warmupCycles = 5

// The engine workloads' graphs. engine_coarse carries enough per-node work
// that one spec's serial sweep takes 6–13 ms; engine_fine carries none.
// They are sized so that a cycle takes about 50 ms and a 16-second run
// holds some 300 of them, fifteen beyond the 95th percentile.
var (
	coarseRandom   = api.RunSpec{Shape: api.ShapeRandom, Nodes: 2000, EdgeProb: 0.01, Work: 2000, Workload: "pathcount"}
	coarsePipeline = api.RunSpec{Shape: api.ShapePipeline, Stages: 200, Width: 8, Work: 2000, Workload: "hashchain"}
	coarseSplit    = api.RunSpec{Shape: api.ShapePipeline, Stages: 40, Width: 1, Work: 160000, ParallelWork: true, Workload: "longestpath"}

	finePipeline = api.RunSpec{Shape: api.ShapePipeline, Stages: 2000, Width: 8, Workload: "pathcount"}
	fineRandom   = api.RunSpec{Shape: api.ShapeRandom, Nodes: 2000, EdgeProb: 0.01, Workload: "hashchain"}
	fineChain    = api.RunSpec{Shape: api.ShapeChain, Nodes: 100000, Workload: "longestpath"}
	fineDynamic  = api.RunSpec{Shape: api.ShapeDynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Workload: "pathcount"}
)

// dynamicNodes is the size a dynamic graph must come out at, give or take
// three tenths, for its seed to be used. The shape's size is a branching process:
// over seeds it ranges from 1,400 to 20,000 nodes at these parameters, and a
// cycle's cost would follow the seed instead of the code.
const dynamicNodes = 10000

// engineCycles draws the workload's cycles from seed: a fixed sequence of
// specs whose graph seeds rotate through a small pool, so every spec comes
// round again and its result can be checked for repeatability. Whatever the
// seed, a cycle is the same amount of work.
func engineCycles(ctx context.Context, w workload, seed int64, workers int) ([][]api.RunSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	const pool = 4
	cycles := make([][]api.RunSpec, pool)
	for i := range cycles {
		if w.name == "engine_coarse" {
			random := coarseRandom
			random.Seed = 1 + rng.Int63n(1<<30)
			cycles[i] = []api.RunSpec{random, coarsePipeline, coarseSplit}
			continue
		}
		random, dynamic := fineRandom, fineDynamic
		random.Seed = 1 + rng.Int63n(1<<30)
		for {
			dynamic.Seed = 1 + rng.Int63n(1<<30)
			res, err := execute(ctx, dynamic, workers)
			if err != nil {
				return nil, fmt.Errorf("sizing %+v: %w", dynamic, err)
			}
			if 10*res.Nodes >= 7*dynamicNodes && 10*res.Nodes <= 13*dynamicNodes {
				break
			}
		}
		cycles[i] = []api.RunSpec{finePipeline, random, fineChain, dynamic}
	}
	return cycles, nil
}

// done is one completed unit of closed-loop work — a service run or an
// engine cycle — as the window statistics see it.
type done struct {
	from, at   time.Time // when the unit started and completed
	runs       int
	nodes      int
	serialMs   float64
	parallelMs float64
}

// windowStats cuts [start, start+length) into numWindows windows and
// returns, per window, verified runs per second, parallel nanoseconds per
// node and serial over parallel time. A unit of work counts towards each
// window in proportion to the part of its own duration spent there, so a
// rate is not quantised by units straddling a window's edge; what falls
// outside the phase is left out.
func windowStats(start time.Time, length time.Duration, ds []done) (rate, nsPerNode, speedup []float64) {
	var runs, nodes, serial, parallel [numWindows]float64
	per := length.Seconds() / numWindows
	for _, d := range ds {
		from, to := d.from.Sub(start).Seconds(), d.at.Sub(start).Seconds()
		for i := 0; i < numWindows; i++ {
			lo, hi := max(from, float64(i)*per), min(to, float64(i+1)*per)
			if hi <= lo {
				continue
			}
			share := (hi - lo) / (to - from)
			runs[i] += share * float64(d.runs)
			nodes[i] += share * float64(d.nodes)
			serial[i] += share * d.serialMs
			parallel[i] += share * d.parallelMs
		}
	}
	for i := 0; i < numWindows; i++ {
		rate = append(rate, runs[i]/per)
		if nodes[i] > 0 && parallel[i] > 0 {
			nsPerNode = append(nsPerNode, parallel[i]*1e6/nodes[i])
			speedup = append(speedup, serial[i]/parallel[i])
		}
	}
	return rate, nsPerNode, speedup
}

// closedLoopValues fills in what a closed-loop phase yields, each the
// median over the phase's windows: runs_per_s and the two Nabbit ratios.
func closedLoopValues(values map[string]float64, start time.Time, length time.Duration, ds []done) {
	rate, ns, sp := windowStats(start, length, ds)
	for name, v := range map[string][]float64{"runs_per_s": rate, "sched.parallel_ns_per_node": ns, "sched.speedup": sp} {
		q1, med, q3 := quartiles(v)
		values[name] = med
		logf("  %-26s median %.4f over %d windows (quartiles %.4f .. %.4f)", name, med, len(v), q1, q3)
	}
}

// latencyValues fills in latency_ms_p50 and latency_ms_p90 from one
// latency per request (or cycle), and says on standard error how deep into
// the tail the sample reaches.
func latencyValues(values map[string]float64, ms []float64) {
	s := sorted(ms)
	values["latency_ms_p50"] = percentile(s, 0.50)
	values["latency_ms_p90"] = percentile(s, 0.90)
	note := "too few samples for any tail percentile"
	if q, ok := tailQuantile(len(s)); ok {
		note = fmt.Sprintf("highest percentile with %d samples beyond it: p%g = %.4f ms", minBeyond, q*100, percentile(s, q))
	}
	if samplesBeyond(len(s), 0.90) < minBeyond {
		note += "; latency_ms_p90 is UNDER-SAMPLED"
	}
	logf("  latency: %d samples, p50 %.4f ms, p90 %.4f ms; %s", len(s), values["latency_ms_p50"], values["latency_ms_p90"], note)
}

// checker verifies results: every execution must match its serial
// reference, and a spec must give the same sink value every time.
type checker struct {
	sinks             map[string]uint64
	attempted, failed int
}

func newChecker() *checker { return &checker{sinks: make(map[string]uint64)} }

// expect records the sink value spec must produce.
func (c *checker) expect(spec api.RunSpec, sink uint64) { c.sinks[specKey(spec)] = sink }

// check counts one attempt and reports whether it passed. err is whatever
// kept the run from producing a result at all.
func (c *checker) check(spec api.RunSpec, res execResult, err error) bool {
	c.attempted++
	key := specKey(spec)
	want, seen := c.sinks[key]
	switch {
	case err != nil:
		logf("FAILED %+v: %v", spec, err)
	case !res.Match:
		logf("FAILED %+v: parallel result does not match the serial reference", spec)
	case seen && want != res.Sink:
		logf("FAILED %+v: sink_paths_mod64 %d, expected %d", spec, res.Sink, want)
	default:
		c.sinks[key] = res.Sink
		return true
	}
	c.failed++
	return false
}

// specKey names what selects the graph and the computation and leaves out
// the rest, so the same work submitted for two tenants shares one expected
// value.
func specKey(s api.RunSpec) string {
	return fmt.Sprintf("%s n=%d p=%g %dx%d seed=%d %s work=%d split=%t",
		s.Shape, s.Nodes, s.EdgeProb, s.Stages, s.Width, s.Seed, s.Workload, s.Work, s.ParallelWork)
}

// engineEnv is a set-up engine workload.
type engineEnv struct {
	cycles [][]api.RunSpec
	check  *checker
}

// setupEngine generates the cycles and warms the process up: everything
// between process start and the first timed call.
func setupEngine(ctx context.Context, cfg config, w workload) (*engineEnv, error) {
	cycles, err := engineCycles(ctx, w, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	env := &engineEnv{cycles: cycles, check: newChecker()}
	for i := 0; i < warmupCycles; i++ {
		for _, spec := range env.cycles[i%len(env.cycles)] {
			res, err := execute(ctx, spec, cfg.workers)
			if !env.check.check(spec, res, err) {
				return nil, fmt.Errorf("warm-up run failed")
			}
		}
	}
	return env, nil
}

// specSample is one execution inside a traced engine cycle.
type specSample struct {
	spec       api.RunSpec
	start, end time.Time
	res        execResult
	steps      steps
}

// engineLoop runs cycles back to back from one caller until length has
// passed, through run.Execute or — traced — through the decomposed path.
func engineLoop(ctx context.Context, cfg config, env *engineEnv, length time.Duration, traced bool) (start time.Time, ds []done, cycleMs []float64, specs []specSample, err error) {
	start = time.Now()
	for i := 0; time.Since(start) < length; i++ {
		if err := ctx.Err(); err != nil {
			return start, nil, nil, nil, err
		}
		cycle := env.cycles[i%len(env.cycles)]
		d := done{from: time.Now(), runs: len(cycle)}
		for _, spec := range cycle {
			var (
				res execResult
				st  steps
				err error
			)
			t := time.Now()
			if traced {
				res, st, err = executeSteps(ctx, spec, cfg.workers)
			} else {
				res, err = execute(ctx, spec, cfg.workers)
			}
			end := time.Now()
			if !env.check.check(spec, res, err) {
				d.runs--
				continue
			}
			d.nodes += res.Nodes
			d.serialMs += res.SerialMs
			d.parallelMs += res.ParallelMs
			if traced {
				specs = append(specs, specSample{spec, t, end, res, st})
			}
		}
		d.at = time.Now()
		cycleMs = append(cycleMs, ms(d.at.Sub(d.from)))
		ds = append(ds, d)
	}
	return start, ds, cycleMs, specs, nil
}

// runEngine runs one engine workload: set-up (repeated, for setup_s), then
// either the untraced closed loop the end-to-end metrics come from or the
// traced pass and the layer probes.
func runEngine(ctx context.Context, cfg config, w workload, trace bool) (*report, error) {
	values := make(map[string]float64)
	var env *engineEnv
	var setups []float64
	repeat := cfg.setups
	if trace {
		repeat = 1 // setup_s is not a traced run's to report
	}
	for i := 0; i < repeat; i++ {
		t := time.Now()
		var err error
		if env, err = setupEngine(ctx, cfg, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	values["setup_s"] = median(setups)
	logf("%s: seed %d, P=%d workers, one caller; set-up %v s", w.name, cfg.seed, cfg.workers, setups)

	if !trace {
		length := cfg.phase(1)
		start, ds, cycleMs, _, err := engineLoop(ctx, cfg, env, length, false)
		if err != nil {
			return nil, err
		}
		closedLoopValues(values, start, length, ds)
		latencyValues(values, cycleMs)
		logValues(values, endToEnd)
		return &report{env.check.attempted, env.check.failed, values}, nil
	}

	phases := []time.Duration{cfg.phase(0.25), cfg.phase(0.25)}
	cpu0 := selfCPU()
	nodes0, steals0 := schedCounters()
	start, ds, _, _, err := engineLoop(ctx, cfg, env, phases[0], false)
	if err != nil {
		return nil, err
	}
	closedLoopValues(values, start, phases[0], ds)
	untraced := values["runs_per_s"]
	nodes1, steals1 := schedCounters()
	if n := runsIn(ds); n > 0 {
		values["proc.bench_cpu_ms_per_run"] = (selfCPU() - cpu0).Seconds() * 1e3 / float64(n)
		values["sched.nodes_per_run"] = float64(nodes1-nodes0) / float64(n)
		values["sched.steals_per_run"] = float64(steals1-steals0) / float64(n)
	}

	start, ds, _, specs, err := engineLoop(ctx, cfg, env, phases[1], true)
	if err != nil {
		return nil, err
	}
	traced := medianRate(start, phases[1], ds)
	if untraced > 0 {
		values["trace.overhead_share"] = 1 - traced/untraced
	}

	var spans []span
	var wall, other, serial, parallel, verify []float64
	var nodes int
	var serialTotal float64
	for i, s := range specs {
		id := fmt.Sprintf("exec-%d", i)
		spans = append(spans, stepSpans(id, "", s.start, s.end, s.steps)...)
		wallMs := ms(s.end.Sub(s.start))
		wall = append(wall, wallMs)
		other = append(other, wallMs-s.res.SerialMs-s.res.ParallelMs)
		serial = append(serial, s.res.SerialMs)
		parallel = append(parallel, s.res.ParallelMs)
		verify = append(verify, ms(s.steps.T[4].Sub(s.steps.T[3])))
		nodes += s.res.Nodes
		serialTotal += s.res.SerialMs
	}
	values["run.execute_ms_p50"] = pct(wall, 0.5)
	values["run.execute_other_ms_p50"] = pct(other, 0.5)
	values["run.verify_ms_p50"] = pct(verify, 0.5)
	values["sched.serial_ms_p50"] = pct(serial, 0.5)
	values["sched.parallel_ms_p50"] = pct(parallel, 0.5)
	if nodes > 0 {
		values["sched.serial_ns_per_node"] = serialTotal * 1e6 / float64(nodes)
	}
	if err := traceSummary(cfg, w, "run.execute", spans, values); err != nil {
		return nil, err
	}

	var own []api.RunSpec
	for _, c := range env.cycles {
		own = append(own, c...)
	}
	if err := layerProbes(ctx, cfg, own, false, values); err != nil {
		return nil, err
	}
	logValues(values, perLayer)
	return &report{env.check.attempted, env.check.failed, values}, nil
}

// stepSpans turns one decomposed execution into spans: run.execute, from
// start to end, around the four layer calls in the order steps lays them
// out. What is left of run.execute is its own time: lookups, the result.
func stepSpans(id, parent string, start, end time.Time, st steps) []span {
	names := [4]string{"gen.generate", "sched.serial", "sched.parallel", "run.verify"}
	out := []span{{Run: id, Name: "run.execute", Parent: parent, Start: start.UnixNano(), End: end.UnixNano()}}
	for i, n := range names {
		out = append(out, span{Run: id, Name: n, Parent: "run.execute", Start: st.T[i].UnixNano(), End: st.T[i+1].UnixNano()})
	}
	return out
}

// medianRate is a closed-loop phase's runs per second, median over windows.
func medianRate(start time.Time, length time.Duration, ds []done) float64 {
	rate, _, _ := windowStats(start, length, ds)
	return median(rate)
}

func runsIn(ds []done) int {
	n := 0
	for _, d := range ds {
		n += d.runs
	}
	return n
}
