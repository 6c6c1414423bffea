package gen

import (
	"math"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// BenchmarkGenerate times graph construction over the four shapes of the
// benchmark's engine_fine workload, where run.Execute pays for it on every
// run, plus the service mix's random graph. The dynamic case is FinalDAG of a
// graph expanded once beforehand: the layout of the discovered graph that
// the serial verification sweeps. ns/edge is the figure to compare across
// shapes: for random it carries one draw per edge and FromEdges' freeze,
// for chain and pipeline the layout by formula alone, and for dynamic the
// one pass that fills the children from the expander's counts.
//
// Each op releases the graph the op before it built, as run.Execute
// releases every run's, so the layout writes recycled arrays from the free
// lists: ns/op is what a run pays to build its graph, not make, zeroing and
// the garbage collector, and B/op is what a build takes beyond the lists.
func BenchmarkGenerate(b *testing.B) {
	static := func(cfg Config) func() (*dag.DAG, error) {
		return func() (*dag.DAG, error) { return Generate(cfg) }
	}
	for _, bc := range []struct {
		name  string
		build func() (*dag.DAG, error)
	}{
		{"random_n2000_p0.01", static(Config{Shape: Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1})},
		{"random_n200_p0.02", static(Config{Shape: Random, Nodes: 200, EdgeProb: 0.02, Seed: 1})},
		{"pipeline_2000x8", static(Config{Shape: Pipeline, Stages: 2000, Width: 8})},
		{"chain_n100000", static(Config{Shape: Chain, Nodes: 100000})},
		{"dynamic_12x3_final", expandedDynamic(b, Config{Shape: Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}).FinalDAG},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var d *dag.DAG
			var err error
			for i := 0; i < b.N; i++ {
				if d != nil {
					d.Release()
				}
				if d, err = bc.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumEdges()), "ns/edge")
			d.Release()
		})
	}
}

// expandedDynamic returns the expander for cfg with every level built.
func expandedDynamic(b *testing.B, cfg Config) *Dyn {
	d, err := NewDynamic(cfg, DynLimits{})
	if err == nil {
		_, err = walk(d, func([]dag.NodeID) {})
	}
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDynamicExpand times a serial full expansion of the benchmark's
// engine_fine dynamic config: every node expanded once, in ID order, so each
// level is built by the first Expand of its parent level and every later
// Expand is a lookup. ns/node and allocs/op are the figures to watch: the
// expander's allocations are a handful of array growths per level, not one
// per node or edge.
func BenchmarkDynamicExpand(b *testing.B) {
	cfg := Config{Shape: Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}
	b.ReportAllocs()
	nodes := 0
	for i := 0; i < b.N; i++ {
		d, err := NewDynamic(cfg, DynLimits{})
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < d.NumNodes(); u++ {
			if _, err := d.Expand(dag.NodeID(u)); err != nil {
				b.Fatal(err)
			}
		}
		nodes += d.NumNodes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkDynamicDeepNarrow times discovering a level at two depths: a
// width-1 expansion of 200k stages against one of 50k, the short size timed
// over four specs so both are measured over the same span of wall time,
// best of five alternating reps each. Four times the stages must take
// under eight times as long (linear is 4; a per-level cost linear in the
// depth would be 16). TestDynamicDeepNarrow checks the same by counting,
// which load cannot flake; this is the wall-clock view, with the ratio
// reported.
func BenchmarkDynamicDeepNarrow(b *testing.B) {
	expand := func(stages, specs int) (took time.Duration) {
		for range specs {
			d := narrow(b, stages)
			start := time.Now()
			expandNarrow(b, d, func() {})
			took += time.Since(start)
		}
		return took
	}
	short, long := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range max(b.N, 5) {
		short = min(short, expand(50_000, 4)/4)
		long = min(long, expand(200_000, 1))
	}
	ratio := float64(long) / float64(short)
	b.ReportMetric(ratio, "ratio")
	if ratio >= 8 {
		b.Fatalf("200k stages took %v, 50k took %v: ratio %.1f, want < 8 (linear is 4)", long, short, ratio)
	}
}
