package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// TestDeepChainExecution proves the scheduler handles Nabbit's huge-span
// graphs iteratively: a ~1e6-deep chain would blow the stack under any
// per-level recursion, but the keep-first-child continuation walks it as a
// loop inside one worker.
func TestDeepChainExecution(t *testing.T) {
	const n = 1 << 20
	d, err := gen.ChainDAG(n)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(d, Options{Workers: 8})
	vals, err := ex.Run(context.Background(), mustLookup("longestpath").Compute(0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vals[n-1], uint64(n-1); got != want {
		t.Fatalf("chain sink depth = %d, want %d", got, want)
	}
}

// TestDeepWidthOnePipeline is the same span stress through the pipeline
// generator at width 1, the other shape the run layer admits at full depth.
func TestDeepWidthOnePipeline(t *testing.T) {
	const stages = 1<<20 - 2
	d, err := gen.PipelineDAG(stages, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Depth(); got != stages+1 {
		t.Fatalf("Depth = %d, want %d", got, stages+1)
	}
	vals, err := New(d, Options{Workers: 4}).Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 1 {
			t.Fatalf("node %d path count = %d, want 1 (width-1 pipeline has one path)", i, v)
		}
	}
}

// BenchmarkDeepChain pins the per-node cost (time and allocations) of the
// deep-span path: allocations must stay amortized-constant per node, not
// per-level.
func BenchmarkDeepChain(b *testing.B) {
	const n = 1 << 18
	d, err := gen.ChainDAG(n)
	if err != nil {
		b.Fatal(err)
	}
	ex := New(d, Options{Workers: 4})
	hook := PathCount(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(context.Background(), hook); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSplitWorkMatchesSerial pins the parallel_work path end to end inside
// the scheduler: values computed with the pure hook plus scheduler-side
// sliced work must equal the ordinary serial reference, and more than one
// worker must actually have executed slices of some node's work.
func TestSplitWorkMatchesSerial(t *testing.T) {
	d, err := gen.ChainDAG(64)
	if err != nil {
		t.Fatal(err)
	}
	w := mustLookup("hashchain")
	serial, err := w.Serial(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	pure := w.(SplitComputable).PureCompute()

	const splitWork = 1 << 20 // chunks = min(workers, splitWork/4096) = 8
	ex := New(d, Options{Workers: 8, SplitWork: splitWork})
	// Slice stealing is timing-dependent; retry a few times before declaring
	// that no second worker ever participated.
	participated := 0
	for attempt := 0; attempt < 10; attempt++ {
		vals, err := ex.Run(context.Background(), pure)
		if err != nil {
			t.Fatal(err)
		}
		if verr := w.Verify(d, serial, vals); verr != nil {
			t.Fatal(verr)
		}
		if participated = ex.SplitWorkers(); participated >= 2 {
			break
		}
	}
	if participated < 2 {
		t.Fatalf("SplitWorkers = %d after retries, want >= 2 (no intra-node parallelism observed)", participated)
	}
}

// TestSplitWorkSingleNode is the degenerate Nabbit UseParallelNodes case: a
// one-node graph has zero inter-node parallelism, so any speedup must come
// from splitting the node's own work.
func TestSplitWorkSingleNode(t *testing.T) {
	d, err := gen.ChainDAG(1)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(d, Options{Workers: 4, SplitWork: 1 << 18})
	vals, err := ex.Run(context.Background(), mustLookup("pathcount").(SplitComputable).PureCompute())
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1 {
		t.Fatalf("single-node value = %d, want 1", vals[0])
	}
}

// TestRunDynamicMatchesSerial executes a dynamic expansion in parallel and
// verifies the values against a serial sweep of the final graph — the same
// verification contract run.Execute applies. The second config grows past
// three segment boundaries of the node table, so values and counters on
// both sides of every boundary are checked at every pool size.
func TestRunDynamicMatchesSerial(t *testing.T) {
	configs := []struct {
		cfg      gen.Config
		minNodes int
	}{
		{gen.Config{Shape: gen.Dynamic, Stages: 8, Width: 3, EdgeProb: 0.3, Seed: 17}, 2},
		{gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}, 3*segSize + 2},
	}
	for _, tc := range configs {
		for _, wl := range []string{"pathcount", "hashchain", "longestpath"} {
			w := mustLookup(wl)
			for _, workers := range []int{1, 2, 8} {
				dyn, err := gen.NewDynamic(tc.cfg, gen.DynLimits{})
				if err != nil {
					t.Fatal(err)
				}
				vals, err := RunDynamic(context.Background(), dyn, workers, w.Compute(0))
				if err != nil {
					t.Fatalf("%s P=%d: RunDynamic: %v", wl, workers, err)
				}
				if len(vals) < tc.minNodes {
					t.Fatalf("stages=%d grew %d nodes, want at least %d", tc.cfg.Stages, len(vals), tc.minNodes)
				}
				final, err := dyn.FinalDAG()
				if err != nil {
					t.Fatalf("%s P=%d: FinalDAG: %v", wl, workers, err)
				}
				serial, err := w.Serial(context.Background(), final, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(final, serial, vals); err != nil {
					t.Fatalf("%s P=%d: %v", wl, workers, err)
				}
			}
		}
	}
}

// TestStaticGraphThroughDynamicEntry runs fully built DAGs through
// RunDynamic: the two entry points share one core, so the values must be
// identical to Executor.Run's, node for node.
func TestStaticGraphThroughDynamicEntry(t *testing.T) {
	for _, cfg := range []gen.Config{
		{Shape: gen.Random, Nodes: 1500, EdgeProb: 0.01, Seed: 5},
		{Shape: gen.Pipeline, Stages: 300, Width: 4},
		{Shape: gen.Chain, Nodes: 5000},
	} {
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hook := mustLookup("hashchain").Compute(0)
		want, err := New(d, Options{Workers: 4}).Run(context.Background(), hook)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunDynamic(context.Background(), staticGraph{d}, 4, hook)
		if err != nil {
			t.Fatalf("%v: RunDynamic: %v", cfg.Shape, err)
		}
		assertEqualCounts(t, want, got)
	}
}

// FuzzRunDynamic drives the expander and the scheduler together: whatever
// the spec and pool size, the parallel values verify against the serial
// sweep of the final graph, and the final graph itself is the one a
// single-worker run discovers — a pure function of the spec.
func FuzzRunDynamic(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(77), uint8(4))
	f.Add(int64(17), uint8(8), uint8(3), uint8(77), uint8(8))
	f.Add(int64(3), uint8(10), uint8(4), uint8(0), uint8(2)) // tree, crosses segments
	f.Add(int64(9), uint8(1), uint8(1), uint8(255), uint8(1))
	f.Add(int64(-5), uint8(10), uint8(1), uint8(128), uint8(3)) // chain-like
	f.Fuzz(func(t *testing.T, seed int64, stages, width, p, workers uint8) {
		cfg := gen.Config{
			Shape:    gen.Dynamic,
			Stages:   1 + int(stages)%10,
			Width:    1 + int(width)%4,
			EdgeProb: float64(p) / 255,
			Seed:     seed,
		}
		w := mustLookup("hashchain")
		pool := 1 + int(workers)%8
		discover := func(workers int) (*dag.DAG, []uint64) {
			dyn, err := gen.NewDynamic(cfg, gen.DynLimits{})
			if err != nil {
				t.Fatal(err)
			}
			vals, err := RunDynamic(context.Background(), dyn, workers, w.Compute(0))
			if err != nil {
				t.Fatalf("RunDynamic(P=%d): %v", workers, err)
			}
			final, err := dyn.FinalDAG()
			if err != nil {
				t.Fatal(err)
			}
			return final, vals
		}
		final, vals := discover(pool)
		serial, err := w.Serial(context.Background(), final, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Verify(final, serial, vals); err != nil {
			t.Fatal(err)
		}
		ref, _ := discover(1)
		if final.NumNodes() != ref.NumNodes() || final.NumEdges() != ref.NumEdges() {
			t.Fatalf("final graph depends on the pool: %d nodes/%d edges at P=%d, %d/%d at P=1",
				final.NumNodes(), final.NumEdges(), pool, ref.NumNodes(), ref.NumEdges())
		}
	})
}

// TestRunDynamicGrowthBound pins the fail-closed path: an expansion that
// exceeds its node cap aborts the run promptly with the growth-bound error.
func TestRunDynamicGrowthBound(t *testing.T) {
	dyn, err := gen.NewDynamic(gen.Config{Shape: gen.Dynamic, Stages: 40, Width: 4, EdgeProb: 0, Seed: 2},
		gen.DynLimits{MaxNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := RunDynamic(context.Background(), dyn, 4, PathCount(0))
	if !errors.Is(rerr, gen.ErrGrowthBound) {
		t.Fatalf("RunDynamic = %v, want gen.ErrGrowthBound", rerr)
	}
}

// slowDyn wraps a gen.Dyn with a per-expand delay so cancellation can land
// mid-run deterministically.
type slowDyn struct {
	*gen.Dyn
	delay time.Duration
	calls atomic.Int64
}

func (s *slowDyn) Expand(u dag.NodeID) ([]dag.NodeID, error) {
	s.calls.Add(1)
	time.Sleep(s.delay)
	return s.Dyn.Expand(u)
}

func TestRunDynamicCancellation(t *testing.T) {
	inner, err := gen.NewDynamic(gen.Config{Shape: gen.Dynamic, Stages: 1000, Width: 2, EdgeProb: 0, Seed: 4}, gen.DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	dyn := &slowDyn{Dyn: inner, delay: 200 * time.Microsecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	var once sync.Once
	hook := func(id dag.NodeID, parents []uint64) uint64 {
		once.Do(func() { close(started) })
		return 1
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunDynamic(ctx, dyn, 4, hook)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("RunDynamic = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunDynamic did not return promptly after cancel")
	}
}

// TestRunDynamicSingleLeaf covers the smallest dynamic graph (root with
// stages=1) and a single worker, exercising the no-steal path.
func TestRunDynamicSingleLeaf(t *testing.T) {
	dyn, err := gen.NewDynamic(gen.Config{Shape: gen.Dynamic, Stages: 1, Width: 1, Seed: 6}, gen.DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := RunDynamic(context.Background(), dyn, 1, PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 1 {
		t.Fatalf("values = %v, want [1 1] (root and its single child)", vals)
	}
}
