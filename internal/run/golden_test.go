package run

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// TestGoldenResults pins what a run reports for the benchmark's graphs — the
// four engine_fine shapes and the service mix's two — under every built-in
// workload: the graph's size and depth, and the sum of its sink values. The
// values were recorded before node IDs narrowed to 32 bits and before the
// freeze learned to skip Kahn's pass, so they hold a run's outcome fixed
// across the graph's representation, not just its digest. Every spec is
// below the serial grain, so Execute walks it; each is also sent to the
// pool at two and four workers, and all three must match the goldens.
func TestGoldenResults(t *testing.T) {
	names := append([]string(nil), goldenWorkloads[:]...)
	sort.Strings(names)
	if !reflect.DeepEqual(names, sched.Workloads()) {
		t.Fatalf("goldens cover workloads %v, the table holds %v", names, sched.Workloads())
	}
	for _, tc := range goldenCases {
		for i := range goldenWorkloads {
			checkGolden(t, tc, i)
		}
	}
}

// TestGoldenResultsConcurrent runs the golden table from several goroutines
// at once, each from a different row, so runs of every shape share the free
// lists while they execute: an array released while another run still reads
// it, or handed to two runs at once, fails a golden (and, built with the
// poison tag, reads all ones where a value should be).
func TestGoldenResultsConcurrent(t *testing.T) {
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for k := range goldenCases {
				tc := goldenCases[(first+k)%len(goldenCases)]
				for i := range goldenWorkloads {
					checkGolden(t, tc, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

var goldenWorkloads = [3]string{"pathcount", "hashchain", "longestpath"}

type goldenCase struct {
	name                string
	spec                Spec
	nodes, edges, depth int
	sinks               [3]uint64 // SinkPaths per workload, in goldenWorkloads' order
}

var goldenCases = []goldenCase{
	{"engine_fine pipeline 2000x8", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 2000, Width: 8}},
		16002, 43994, 2001, [3]uint64{0xba8d50fd396167f6, 0xd06bf098ad88f585, 0x7d1}},
	{"engine_fine random n=2000 p=0.01 seed 1", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 2000, EdgeProb: 0.01, Seed: 1}},
		2000, 20063, 59, [3]uint64{0x51c68d303, 0x1c9c673400f0ad4e, 0x3b}},
	{"engine_fine chain n=100000", Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 100000}},
		100000, 99999, 99999, [3]uint64{0x1, 0xde67264dd016b486, 0x1869f}},
	{"engine_fine dynamic 12x3 p=0.2 seed 1", Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}},
		13689, 21792, 12, [3]uint64{0xd0447, 0x6ef960925d137756, 0x14208}},
	{"service pipeline 50x4", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 50, Width: 4}, Work: 50},
		202, 498, 51, [3]uint64{0x240c5eed2120718a, 0xcd506c1f87a90d03, 0x33}},
	{"service random n=200 p=0.02 seed 13", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 200, EdgeProb: 0.02, Seed: 13}, Work: 50},
		200, 516, 17, [3]uint64{0x45f, 0xfbddefc7dee4b2b4, 0x11}},
}

// checkGolden executes tc under its i-th workload, walked by Execute and on
// the pool at two and four workers, and reports, with t.Errorf so that any
// goroutine may call it, where a result departs from the golden one. The
// pool passes raise the spec's work to the serial grain, which reaches the
// pool without moving a value: spin never feeds the recurrence.
func checkGolden(t *testing.T, tc goldenCase, i int) {
	for _, pass := range []struct {
		name          string
		work, workers int
	}{
		{"walked", tc.spec.Work, 0},
		{"P=2", sched.SerialGrain, 2},
		{"P=4", sched.SerialGrain, 4},
	} {
		spec := tc.spec
		spec.Workload = goldenWorkloads[i]
		spec.Work, spec.Workers = pass.work, pass.workers
		res, err := Execute(context.Background(), spec, 2)
		if err != nil {
			t.Errorf("%s %s %s: %v", tc.name, spec.Workload, pass.name, err)
			continue
		}
		if want := max(pass.workers, 1); res.Workers != want {
			t.Errorf("%s %s %s: %d workers, want %d", tc.name, spec.Workload, pass.name, res.Workers, want)
		}
		if res.Nodes != tc.nodes || res.Edges != tc.edges || res.Depth != tc.depth || res.SinkPaths != tc.sinks[i] {
			t.Errorf("%s %s %s: nodes %d edges %d depth %d sinks %#x, want %d %d %d %#x", tc.name, spec.Workload, pass.name,
				res.Nodes, res.Edges, res.Depth, res.SinkPaths, tc.nodes, tc.edges, tc.depth, tc.sinks[i])
		}
	}
}
