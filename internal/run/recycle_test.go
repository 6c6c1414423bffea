package run

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
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
