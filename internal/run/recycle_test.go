package run

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// TestExecuteRecyclesMemory pins that a warm engine takes a run's arrays
// from the free lists instead of the heap: after a warm-up, and with the
// garbage collector (which empties the pools) held off, a fine chain or
// pipeline run allocates under 5% of its graph's array bytes.
func TestExecuteRecyclesMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts on purpose")
	}
	for _, spec := range []Spec{
		{Config: gen.Config{Shape: gen.Chain, Nodes: 100000}, Workload: "longestpath"},
		{Config: gen.Config{Shape: gen.Pipeline, Stages: 2000, Width: 8}, Workload: "pathcount"},
	} {
		const runs = 5
		execute := func() *Result {
			res, err := Execute(context.Background(), spec, 2)
			if err != nil {
				t.Fatalf("%s: %v", spec.Shape, err)
			}
			return res
		}
		res := execute()
		execute()
		// Both CSR sides (offsets and lists) and the topological order, in
		// 4-byte entries; the two passes' values come on top of that.
		graphBytes := uint64(4 * (2*(res.Nodes+1) + 2*res.Edges + res.Nodes))

		prev := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			execute()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(prev)

		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if perRun*20 >= graphBytes {
			t.Errorf("%s: %d bytes allocated per warm run, want under 5%% of the graph's %d", spec.Shape, perRun, graphBytes)
		}
	}
}

// TestExecuteRecyclesMemoryOnPool is TestExecuteRecyclesMemory for runs at
// the serial grain, which the work-stealing pool executes: its node table
// and pending counters and a dynamic run's growth segments come from the
// free lists too, and a split run holds no per-node state, so a warm run
// allocates under 5% of its graph's array bytes.
func TestExecuteRecyclesMemoryOnPool(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts on purpose")
	}
	pipeline := gen.Config{Shape: gen.Pipeline, Stages: 2000, Width: 8}
	dynamic := gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}
	for _, spec := range []Spec{
		{Config: gen.Config{Shape: gen.Chain, Nodes: 100000}, Workload: "longestpath"},
		{Config: pipeline, Workload: "pathcount"},
		{Config: pipeline, Workload: "pathcount", ParallelWork: true},
		{Config: dynamic, Workload: "hashchain"},
		{Config: dynamic, Workload: "hashchain", ParallelWork: true},
	} {
		spec.Work = sched.SerialGrain
		name := fmt.Sprintf("%s parallel_work=%v", spec.Shape, spec.ParallelWork)
		const runs = 5
		execute := func() *Result {
			res, err := Execute(context.Background(), spec, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		res := execute()
		execute()
		if res.Workers != 2 {
			t.Fatalf("%s: %d workers, want the pool's 2", name, res.Workers)
		}
		graphBytes := uint64(4 * (2*(res.Nodes+1) + 2*res.Edges + res.Nodes))

		prev := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			execute()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(prev)

		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per warm run, graph %d", name, perRun, graphBytes)
		if perRun*20 >= graphBytes {
			t.Errorf("%s: %d bytes allocated per warm run, want under 5%% of the graph's %d", name, perRun, graphBytes)
		}
	}
}
