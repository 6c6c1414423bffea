package gen

import (
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

var benchSink *dag.DAG

// BenchmarkGenerate times graph construction over the three static shapes
// of the benchmark's engine_fine workload, where run.Execute pays for it on
// every run. ns/edge is the figure to compare across shapes: for random it
// carries the n²/2 draws, for the other two it is the freeze alone.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"random_n2000_p0.01", Config{Shape: Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1}},
		{"pipeline_2000x8", Config{Shape: Pipeline, Stages: 2000, Width: 8}},
		{"chain_n100000", Config{Shape: Chain, Nodes: 100000}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				if benchSink, err = Generate(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchSink.NumEdges()), "ns/edge")
		})
	}
}
