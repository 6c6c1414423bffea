// Command bench is the repository's benchmark: four workloads over the
// whole stack, each printing its end-to-end metrics (or, with -trace 1,
// its per-layer metrics) as one JSON object on the last line of standard
// output. BENCHMARK.json at the repository root names the workloads and
// metrics and README.md in this directory explains them.
//
//	bash bench/run.sh -workload svc_mem -seed 1            # what BENCHMARK.json runs
//	bash bench/run.sh -workload engine_fine -seed 1 -trace 1
//	bash bench/run.sh -selfcheck -out bench/baseline
//
// Service workloads build ./cmd/dagd and drive it as a child process over
// loopback through pkg/client; engine workloads call run.Execute in
// process. End-to-end numbers always come from an untraced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is BENCHMARK.json's end_to_end list. Every workload reports
// every one of them; README.md says what each means on a service and on an
// engine workload.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is BENCHMARK.json's per_layer list, layer name first. A metric
// that does not apply to a workload (wal.* on svc_mem, server.* on an
// engine workload) or whose series dagd no longer exports reads 0.
var perLayer = []metricDef{
	{"client.submit_rtt_ms_p50", "ms", "lower", 0},
	{"server.deliver_ms_p50", "ms", "lower", 0},
	{"server.http_ms_mean.submit", "ms", "lower", 0},
	{"server.http_ms_mean.get", "ms", "lower", 0},
	{"dispatch.queue_wait_ms_p50", "ms", "lower", 0},
	{"dispatch.queue_wait_ms_p99", "ms", "lower", 0},
	{"dispatch.lease_wait_ms_p50", "ms", "lower", 0},
	{"dispatch.probe.submit_us_p50", "us", "lower", 0},
	{"dispatch.probe.lease_cycle_us_p50", "us", "lower", 0},
	{"run.execute_ms_p50", "ms", "lower", 0},
	{"run.execute_other_ms_p50", "ms", "lower", 0},
	{"run.verify_ms_p50", "ms", "lower", 0},
	{"run.allocs_per_run", "count", "lower", 0},
	{"run.alloc_bytes_per_run", "bytes", "lower", 0},
	{"gen.generate_ms_p50.random", "ms", "lower", 0},
	{"gen.generate_ms_p50.pipeline", "ms", "lower", 0},
	{"gen.generate_ms_p50.chain", "ms", "lower", 0},
	{"sched.serial_ms_p50", "ms", "lower", 0},
	{"sched.parallel_ms_p50", "ms", "lower", 0},
	{"sched.speedup", "ratio", "higher", 0},
	{"sched.parallel_ns_per_node", "ns", "lower", 0},
	{"sched.serial_ns_per_node", "ns", "lower", 0},
	{"sched.parallel_ns_per_node.random", "ns", "lower", 0},
	{"sched.parallel_ns_per_node.pipeline", "ns", "lower", 0},
	{"sched.parallel_ns_per_node.chain", "ns", "lower", 0},
	{"sched.parallel_ns_per_node.dynamic", "ns", "lower", 0},
	{"sched.parallel_ns_per_node.split", "ns", "lower", 0},
	{"sched.t1_ns_per_node.random", "ns", "lower", 0},
	{"sched.t1_ns_per_node.pipeline", "ns", "lower", 0},
	{"sched.t1_ns_per_node.chain", "ns", "lower", 0},
	{"sched.t1_ns_per_node.dynamic", "ns", "lower", 0},
	{"sched.split_workers", "count", "higher", 0},
	{"sched.steals_per_run", "count", "lower", 0},
	{"sched.nodes_per_run", "count", "lower", 0},
	{"wal.appends_per_run", "count", "lower", 0},
	{"wal.fsyncs_per_run", "count", "lower", 0},
	{"wal.fsync_ms_mean", "ms", "lower", 0},
	{"wal.fsync_ms_per_run", "ms", "lower", 0},
	{"wal.commit_batch_mean", "count", "higher", 0},
	{"wal.probe.append_us_p50", "us", "lower", 0},
	{"wal.probe.appends_per_s", "1/s", "higher", 0},
	{"proc.dagd_cpu_ms_per_run", "ms", "lower", 0},
	{"proc.dagd_peak_rss_mb", "MB", "lower", 0},
	{"proc.bench_cpu_ms_per_run", "ms", "lower", 0},
	{"proc.build_s", "s", "lower", 0},
	{"loadgen.lag_ms_p99", "ms", "lower", 0},
	{"svc.fill_s", "s", "lower", 0},
	{"svc.open_latency_ms_p50", "ms", "lower", 0},
	{"svc.open_latency_ms_p90", "ms", "lower", 0},
	{"svc.open_latency_ms_p99", "ms", "lower", 0},
	{"svc.over_slo_share", "ratio", "lower", 0},
	{"trace.self_time_cover", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name   string
	engine bool // in-process run.Execute, not a dagd child
	fsync  bool // dagd -data-dir <tmp> -fsync
	why    string
}

var workloads = []workload{
	{name: "svc_mem", why: "tiny runs against an in-memory dagd holding its full retained history, so HTTP, admission, queueing and the store (its eviction pass above all) do the work and the scheduler almost none"},
	{name: "svc_fsync", fsync: true, why: "the same traffic with the WAL and fsync on: four durable appends per run, and the gap to svc_mem is the WAL's cost"},
	{name: "engine_coarse", engine: true, why: "in-process run.Execute with heavy per-node work and split nodes, so speedup approaches the worker count and scheduler overhead is hidden"},
	{name: "engine_fine", engine: true, why: "in-process run.Execute at work=0 over pipeline, random, chain and dynamic graphs, so generation, allocation and scheduler overhead are all there is"},
}

// defaultSeconds is the -seconds default and BENCHMARK.json's run_seconds.
const defaultSeconds = 16

// config is everything one benchmark run is parameterised by.
type config struct {
	root    string  // repository root: where ./cmd/dagd and bench/tenants.json are
	seed    int64   // every input is drawn from it
	seconds float64 // length of the measured phases together
	setups  int     // how many times set-up is repeated; setup_s is their median
	reps    int     // repetitions of each direct layer probe
	fill    bool    // bring dagd to its retained-history steady state before timing
	clients int     // C: client goroutines and connections
	workers int     // P: scheduler workers per run
	buildS  float64 // wall time of building dagd, reported as proc.build_s
	dagdBin string
	tmp     string // scratch for data dirs, child logs and span files
}

// report is the JSON object a run prints last. values holds every metric
// the run measured; print selects the ones BENCHMARK.json lists.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: svc_mem, svc_fsync, engine_coarse or engine_fine")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the measured phases together")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
		smoke     = flag.Bool("smoke", false, "one-second phases, one set-up, one repetition per probe: proves every layer is still reachable, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice in alternating order and fail if any end-to-end metric disagrees by more than its bound")
		out       = flag.String("out", "", "with -selfcheck: directory to write selfcheck_A.json and selfcheck_B.json into")
		root      = flag.String("root", ".", "repository root")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cfg := config{
		root: *root, seed: *seed, seconds: *seconds, setups: 5, reps: 7, fill: true,
		clients: runtime.NumCPU(), workers: min(runtime.NumCPU(), 4),
	}
	if *smoke {
		cfg.seconds, cfg.setups, cfg.reps, cfg.fill = 1, 1, 1, false
	}
	code, err := realMain(ctx, cfg, *name, *trace == 1, *selfcheck, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, cfg config, name string, trace, selfcheck bool, out string) (int, error) {
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	tmp, err := os.MkdirTemp("", "dagbench-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	if selfcheck {
		if ok, err := runSelfcheck(ctx, cfg, out); err != nil || !ok {
			return 1, err
		}
		return 0, nil
	}
	w, ok := findWorkload(name)
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q (want one of %v)", name, workloadNames())
	}
	rep, err := runWorkload(ctx, cfg, w, trace)
	if err != nil {
		return 1, err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if err := rep.print(os.Stdout, defs); err != nil {
		return 1, err
	}
	if rep.failed > 0 {
		return 1, fmt.Errorf("%d of %d runs failed verification", rep.failed, rep.attempted)
	}
	return 0, nil
}

// runWorkload builds what the workload needs and runs it once.
func runWorkload(ctx context.Context, cfg config, w workload, trace bool) (*report, error) {
	if w.engine {
		return runEngine(ctx, cfg, w, trace)
	}
	if cfg.dagdBin == "" {
		bin, took, err := buildDagd(ctx, cfg.root, cfg.tmp)
		if err != nil {
			return nil, err
		}
		cfg.dagdBin, cfg.buildS = bin, took
	}
	return runService(ctx, cfg, w, trace)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// print writes the result line: the metrics defs names, each with its
// unit, all digits as measured.
func (r *report) print(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{r.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// logf writes progress and the human-readable tables to standard error;
// standard output carries only the result line.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// logValues prints the listed metrics, sorted by name, for a reader
// following along on standard error.
func logValues(values map[string]float64, defs []metricDef) {
	defs = append([]metricDef(nil), defs...)
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	for _, d := range defs {
		logf("  %-38s %14.4f %s", d.name, values[d.name], d.unit)
	}
}

// phase is the length of a phase that gets share of the measured time.
func (c config) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}
