package run

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// BenchmarkExecute is one run.Execute per op at two workers over the
// benchmark's three engine_coarse specs, plus one dynamic spec, and then
// engine_fine's four specs at work=0 (fine_*), where generation and
// allocation are most of a run. It reports each pass's own wall time and
// the allocations beside ns/op: on the static specs the reference sweeps
// beside the parallel pass, so ns/op is about generate +
// max(serial, parallel); the dynamic specs' reference must follow its pass,
// so there ns/op stays about the sum.
func BenchmarkExecute(b *testing.B) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"random", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1}, Work: 2000, Workload: "pathcount"}},
		{"pipeline", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 200, Width: 8}, Work: 2000, Workload: "hashchain"}},
		{"split", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 40, Width: 1}, Work: 160000, ParallelWork: true, Workload: "longestpath"}},
		{"dynamic", Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}, Work: 2000, Workload: "pathcount"}},
		{"fine_pipeline", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 2000, Width: 8}, Workload: "pathcount"}},
		{"fine_random", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1}, Workload: "hashchain"}},
		{"fine_chain", Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 100000}, Workload: "longestpath"}},
		{"fine_dynamic", Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}, Workload: "pathcount"}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var serialMs, parallelMs float64
			for i := 0; i < b.N; i++ {
				res, err := Execute(context.Background(), c.spec, 2)
				if err != nil {
					b.Fatal(err)
				}
				serialMs += res.SerialMillis
				parallelMs += res.ParallelMillis
			}
			b.ReportMetric(serialMs/float64(b.N), "serial-ms/op")
			b.ReportMetric(parallelMs/float64(b.N), "parallel-ms/op")
		})
	}
}

// BenchmarkFinishEvict is one completion as the dispatcher drives it —
// Create → Begin → Finish → EvictTerminal(keep) — against a store already
// holding keep terminal runs, so every op evicts exactly one. The cost of
// a completion must not depend on how much history is retained: ns/op is
// flat across keep.
func BenchmarkFinishEvict(b *testing.B) {
	for _, keep := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("keep=%d", keep), func(b *testing.B) {
			s := NewMemStore()
			spec := pipelineSpec()
			finish := func() {
				r, _ := s.Create(spec)
				if _, err := s.Begin(r.ID, time.Now(), "", nil); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Finish(r.ID, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < keep; i++ {
				finish()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				finish()
				s.EvictTerminal(keep)
			}
		})
	}
}
