package sched

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// Baseline benchmarks for the two generator shapes, parameterized by worker
// count, so perf PRs can compare like for like:
//
//	go test -bench 'BenchmarkRandomDAG|BenchmarkPipelineDAG' -benchmem ./internal/sched/

const benchWork = 500 // per-node busy work; enough that scheduling isn't the whole cost

var benchWorkerCounts = []int{1, 2, 4, 8}

func BenchmarkRandomDAG(b *testing.B) {
	d, err := gen.RandomDAG(2000, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(d, Options{Workers: workers}).Run(ctx, PathCount(benchWork)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineDAG(b *testing.B) {
	// Deep and narrow: large span, the shape that stresses scheduler depth.
	d, err := gen.PipelineDAG(500, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(d, Options{Workers: workers}).Run(ctx, PathCount(benchWork)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
