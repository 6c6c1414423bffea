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

// The fine-grain regime: work=0, so scheduler overhead is the whole cost and
// ns/node is the number to compare before and after a scheduler change:
//
//	go test -run '^$' -bench 'BenchmarkFineGrain|BenchmarkRunDynamic' -cpu 2 ./internal/sched/

var fineWorkerCounts = []int{1, 2}

func BenchmarkFineGrain(b *testing.B) {
	shapes := []struct {
		name string
		cfg  gen.Config
	}{
		{"pipeline", gen.Config{Shape: gen.Pipeline, Stages: 2000, Width: 8}},
		{"random", gen.Config{Shape: gen.Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1}},
		{"chain", gen.Config{Shape: gen.Chain, Nodes: 20000}},
	}
	hook := PathCount(0)
	for _, shape := range shapes {
		d, err := gen.Generate(shape.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range fineWorkerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				ex := New(d, Options{Workers: workers})
				// Cancellable, as every context dagd and bench/ hand the
				// scheduler is: the per-item poll then reads a real channel.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ex.Run(ctx, hook); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.NumNodes()), "ns/node")
			})
		}
	}
}

func BenchmarkRunDynamic(b *testing.B) {
	cfg := gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}
	hook := PathCount(0)
	for _, workers := range fineWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			nodes := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The expander is part of what a dynamic run costs: a fresh
				// one per iteration, so every run discovers the graph anew.
				dyn, err := gen.NewDynamic(cfg, gen.DynLimits{})
				if err != nil {
					b.Fatal(err)
				}
				vals, err := RunDynamic(ctx, dyn, workers, hook)
				if err != nil {
					b.Fatal(err)
				}
				nodes += len(vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		})
	}
}
