package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// gridRow is one graph of BenchmarkGrid and the per-node work W it runs at.
type gridRow struct {
	name       string
	cfg        gen.Config
	works      []int
	split      bool  // parallel_work: the scheduler slices each node's W (Options.SplitWork)
	splitWorks []int // the W at which the row also has split/P=2 and split/P=4 cells
}

var (
	gridWorks  = []int{0, 50, 100, 200, 500, 5000}
	splitWorks = []int{500, 5000}
)

// The graphs are engine_fine's in bench/engine.go. A dynamic pass pays for
// the expansion, as a dynamic run does, while serial sweeps the final DAG,
// so dynamic's T1/TS includes the expander. chain_1M and pipeline_10k
// answer the Nabbit README's worry that span becomes stack depth: the
// worker loop keeps the next ready child in a local, so they run at
// constant stack. split is engine_coarse's parallel_work spec: a node is
// sliced only when W/4096 > 1 (splitChunks), so at every P >= 2. The four
// engine_fine graphs cross with parallel_work in their split/P columns at
// W=500 and W=5000, the Nabbit matrix of dag_type by UseParallelNodes;
// there W/4096 <= 1, so a node burns its W as one slice and the columns
// price the split path, not its stealing.
var gridRows = []gridRow{
	{name: "random", cfg: gen.Config{Shape: gen.Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1}, works: gridWorks, splitWorks: splitWorks},
	{name: "pipeline", cfg: gen.Config{Shape: gen.Pipeline, Stages: 2000, Width: 8}, works: gridWorks, splitWorks: splitWorks},
	{name: "chain", cfg: gen.Config{Shape: gen.Chain, Nodes: 100000}, works: gridWorks, splitWorks: splitWorks},
	{name: "dynamic", cfg: gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}, works: gridWorks, splitWorks: splitWorks},
	{name: "chain_1M", cfg: gen.Config{Shape: gen.Chain, Nodes: 1 << 20}, works: []int{0}},
	{name: "pipeline_10k", cfg: gen.Config{Shape: gen.Pipeline, Stages: 10000, Width: 8}, works: []int{0}},
	{name: "split", cfg: gen.Config{Shape: gen.Pipeline, Stages: 40, Width: 1}, works: []int{160000}, split: true},
}

// columns returns the row's cells at W=work, in the order BenchmarkGrid
// runs them.
func (r gridRow) columns(work int) []string {
	cols := []string{"serial"}
	if r.cfg.Shape == gen.Dynamic {
		cols = append(cols, "walk")
	}
	cols = append(cols, "P=1", "P=2", "P=4")
	if slices.Contains(r.splitWorks, work) {
		cols = append(cols, "split/P=2", "split/P=4")
	}
	return cols
}

// BenchmarkGrid is the engine measured the way the Nabbit microbenchmark
// measures it (Agrawal, Leiserson & Sukha, IPDPS 2010): one sub-benchmark
// per graph, W and column, named <graph>/W=<w>/<column>, so -bench selects
// a slice. No name ends in -<digits>, which tools strip as the -cpu suffix.
//
//	go test -run '^$' -bench 'BenchmarkGrid/.*/W=0$' -cpu 2 ./internal/sched/                   # scheduler overhead
//	go test -run '^$' -bench 'BenchmarkGrid/^(random|pipeline)$/W=500$' -cpu 2 ./internal/sched/ # speedup table
//
// A column is the pass alone at P=1, 2 or 4 workers, through the pool's one
// entry, New(graph, opts).Run (never run.Execute, whose reference sweep
// takes a core) — split/P=2 and split/P=4 with parallel_work — or serial,
// the workload's reference sweep, so a row shows T1/TS. Below
// SerialGrain run.Execute walks a run instead: on a static row that is the
// serial sweep's loop through the run's Compute hook, so the serial column
// times it, and on dynamic, where the walk also expands the graph, a walk
// column does. The lowest W at which some row's P column beats its walk is
// where the pool starts to pay, and SerialGrain is read off it. A cell
// checks its first pass against the serial sweep before it times anything,
// and reports ns/node over the nodes it ran and depth, T∞ in nodes. A P>1
// cell also times P=1 on the same graph and reports speedup, T1/TP, and
// max-speedup, T1 over T1/P + T∞: the speedup Brent's bound,
// T_P <= T1/P + T∞, guarantees a greedy scheduler with free steals — a
// floor a measurement may beat, up to min(P, T1/T∞). T∞ is
// depth × T1/(n × chunks), where chunks is how many slices the cell's pass
// cuts each node's W into (splitChunks; 1 unless split): a split node's
// slices run side by side, so the span is depth slices of W/chunks, not
// depth nodes of W. Only the split row slices (W=160000: 2 slices at P=2,
// 4 at P=4); the other rows' split/ columns, at W=500 and W=5000, keep
// whole nodes.
func BenchmarkGrid(b *testing.B) {
	w := mustLookup(DefaultWorkload)
	// Cancellable, as every context dagd and bench/ hand the scheduler is:
	// the per-item poll then reads a real channel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, row := range gridRows {
		b.Run(row.name, func(b *testing.B) {
			d, err := row.graph(ctx)
			if err != nil {
				b.Fatal(err)
			}
			for _, work := range row.works {
				b.Run(fmt.Sprintf("W=%d", work), func(b *testing.B) {
					ref, err := w.Serial(ctx, d, work)
					if err != nil {
						b.Fatal(err)
					}
					defer ReleaseValues(ref)
					check := func(vals []uint64) error { return w.Verify(d, ref, vals) }
					for _, col := range row.columns(work) {
						p, chunks, pass := 1, 1, func(int) ([]uint64, error) { return w.Serial(ctx, d, work) }
						switch col {
						case "serial":
						case "walk":
							pass = row.walk(ctx, w, work)
						default:
							workers, split := strings.CutPrefix(col, "split/")
							fmt.Sscanf(workers, "P=%d", &p)
							pass = row.pass(ctx, w, d, work, row.split || split)
							if row.split || split {
								chunks = New(d, Options{Workers: p, SplitWork: work}).splitChunks()
							}
						}
						gridCell(b, col, p, chunks, d, check, pass)
					}
				})
			}
		})
	}
}

// graph returns the row's DAG: the generated one, or a dynamic run's final
// graph.
func (r gridRow) graph(ctx context.Context) (*dag.DAG, error) {
	if r.cfg.Shape != gen.Dynamic {
		return gen.Generate(r.cfg)
	}
	dyn, err := gen.NewDynamic(r.cfg, gen.DynLimits{})
	if err != nil {
		return nil, err
	}
	vals, err := RunDynamic(ctx, dyn, 1, PathCount(0))
	if err != nil {
		return nil, err
	}
	ReleaseValues(vals)
	return dyn.FinalDAG()
}

// walk returns the dynamic row's pass at W=work as run.Execute makes it
// below SerialGrain: WalkDynamic over a fresh expander, released after it,
// as a run releases its own.
func (r gridRow) walk(ctx context.Context, w Workload, work int) func(int) ([]uint64, error) {
	hook := w.Compute(work)
	return func(int) ([]uint64, error) {
		dyn, err := gen.NewDynamic(r.cfg, gen.DynLimits{})
		if err != nil {
			return nil, err
		}
		defer dyn.Release()
		return WalkDynamic(ctx, dyn, work, hook)
	}
}

// pass returns one parallel pass of the row at W=work on p workers, through
// the pool's one entry; split passes W to the scheduler to slice
// (parallel_work). A dynamic pass builds a fresh expander, so each one
// discovers the graph anew, and releases it as a run does.
func (r gridRow) pass(ctx context.Context, w Workload, d *dag.DAG, work int, split bool) func(p int) ([]uint64, error) {
	hook, splitWork := w.Compute(work), 0
	if split {
		hook, splitWork = w.PureCompute(), work
	}
	return func(p int) ([]uint64, error) {
		if r.cfg.Shape != gen.Dynamic {
			return New(d, Options{Workers: p, SplitWork: splitWork}).Run(ctx, hook)
		}
		dyn, err := gen.NewDynamic(r.cfg, gen.DynLimits{})
		if err != nil {
			return nil, err
		}
		defer dyn.Release()
		return New(dyn, Options{Workers: p, SplitWork: splitWork}).Run(ctx, hook)
	}
}

// gridCell is one cell of the grid: pass at p workers, cutting each node's
// W into chunks slices. Each time the testing package runs the cell it
// checks a first pass before timing any.
func gridCell(b *testing.B, name string, p, chunks int, d *dag.DAG, check func([]uint64) error, pass func(p int) ([]uint64, error)) {
	depth := float64(d.Depth() + 1)
	b.Run(name, func(b *testing.B) {
		run := func(workers int) []uint64 {
			vals, err := pass(workers)
			if err != nil {
				b.Fatal(err)
			}
			return vals
		}
		vals := run(p)
		if err := check(vals); err != nil {
			b.Fatal(err)
		}
		ReleaseValues(vals)
		var t1 time.Duration
		if p > 1 {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				ReleaseValues(run(1))
			}
			t1 = time.Since(start)
		}
		b.ReportAllocs()
		b.ResetTimer()
		nodes := 0
		for i := 0; i < b.N; i++ {
			vals = run(p)
			nodes += len(vals)
			ReleaseValues(vals)
		}
		tp := b.Elapsed()
		b.ReportMetric(float64(tp.Nanoseconds())/float64(nodes), "ns/node")
		b.ReportMetric(depth, "depth")
		if p > 1 {
			b.ReportMetric(float64(t1)/float64(tp), "speedup")
			b.ReportMetric(1/(1/float64(p)+depth/float64(d.NumNodes()*chunks)), "max-speedup")
		}
	})
}

// TestGridRecordNamesEveryCell holds BENCH_nabbit.json, the grid's record
// that ci/grid.sh writes at the repository root, to the grid gridRows
// defines: a cell the record misses, or one the grid no longer has, fails,
// so a PR that changes the grid re-records it.
func TestGridRecordNamesEveryCell(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_nabbit.json")
	if err != nil {
		t.Fatal(err)
	}
	var record struct {
		Cells map[string]json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(raw, &record); err != nil {
		t.Fatalf("BENCH_nabbit.json: %v", err)
	}
	want := map[string]bool{}
	for _, row := range gridRows {
		for _, work := range row.works {
			for _, col := range row.columns(work) {
				want[fmt.Sprintf("%s/W=%d/%s", row.name, work, col)] = true
			}
		}
	}
	var missing, extra []string
	for cell := range want {
		if _, ok := record.Cells[cell]; !ok {
			missing = append(missing, cell)
		}
	}
	for cell := range record.Cells {
		if !want[cell] {
			extra = append(extra, cell)
		}
	}
	slices.Sort(missing)
	slices.Sort(extra)
	if len(missing)+len(extra) > 0 {
		t.Fatalf("BENCH_nabbit.json misses %d of the grid's %d cells %q and holds %d it does not have %q: re-record it with ci/grid.sh",
			len(missing), len(want), missing, len(extra), extra)
	}
}
