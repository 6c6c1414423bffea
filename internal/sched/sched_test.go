package sched

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// serialCounts is the pathcount workload's single-threaded reference sweep:
// what every parallel result in these tests is compared against.
func serialCounts(t testing.TB, d *dag.DAG, work int) []uint64 {
	t.Helper()
	values, err := mustLookup(DefaultWorkload).Serial(context.Background(), d, work)
	if err != nil {
		t.Fatal(err)
	}
	return values
}

func assertEqualCounts(t *testing.T, serial, parallel []uint64) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("node %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestDiamondPathCount(t *testing.T) {
	d, err := dag.FromEdges(4, [][2]dag.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	serial := serialCounts(t, d, 0)
	if serial[3] != 2 {
		t.Fatalf("diamond sink count = %d, want 2", serial[3])
	}
	parallel, err := New(d, Options{Workers: 4}).Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualCounts(t, serial, parallel)
}

func TestRandomDAGsParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		nodes   int
		p       float64
		seed    int64
		workers int
		work    int
	}{
		{nodes: 50, p: 0.1, seed: 1, workers: 1, work: 0},
		{nodes: 200, p: 0.05, seed: 2, workers: 4, work: 0},
		{nodes: 500, p: 0.02, seed: 3, workers: 8, work: 10},
		{nodes: 1000, p: 0.01, seed: 4, workers: 8, work: 0},
		{nodes: 300, p: 0.3, seed: 5, workers: 16, work: 0},
	}
	for _, tc := range cases {
		d, err := gen.RandomDAG(tc.nodes, tc.p, tc.seed)
		if err != nil {
			t.Fatalf("gen(%+v): %v", tc, err)
		}
		serial := serialCounts(t, d, tc.work)
		parallel, err := New(d, Options{Workers: tc.workers}).Run(context.Background(), PathCount(tc.work))
		if err != nil {
			t.Fatalf("parallel(%+v): %v", tc, err)
		}
		assertEqualCounts(t, serial, parallel)
		if TotalSinkPaths(d, serial) == 0 {
			t.Errorf("case %+v: zero sink paths, generator connectivity broken", tc)
		}
	}
}

func TestPipelineParallelMatchesSerial(t *testing.T) {
	d, err := gen.PipelineDAG(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial := serialCounts(t, d, 0)
	parallel, err := New(d, Options{Workers: 8}).Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualCounts(t, serial, parallel)
}

func TestDisconnectedGraph(t *testing.T) {
	// Components 0→1, 2→3, and isolated 4: every source counts 1 path.
	d, err := dag.FromEdges(5, [][2]dag.NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(d, Options{Workers: 4}).Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualCounts(t, serialCounts(t, d, 0), parallel)
	if got := TotalSinkPaths(d, parallel); got != 3 {
		t.Errorf("TotalSinkPaths = %d, want 3", got)
	}
}

func TestEmptyDAG(t *testing.T) {
	d, err := dag.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := New(d, Options{Workers: 4}).Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Errorf("empty dag returned %d values", len(vals))
	}
}

func TestCustomComputeHook(t *testing.T) {
	// Hook: each node's value is max(parents)+1, i.e. its depth+1.
	d, err := gen.PipelineDAG(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	depth := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
		var m uint64
		for _, p := range parents {
			m = max(m, values[p])
		}
		return m + 1
	}
	vals, err := New(d, Options{Workers: 8}).Run(context.Background(), depth)
	if err != nil {
		t.Fatal(err)
	}
	sink := dag.NodeID(d.NumNodes() - 1)
	if got, want := vals[sink], uint64(d.Depth()+1); got != want {
		t.Errorf("sink depth value = %d, want %d", got, want)
	}
}

// TestMidRunCancellation cancels while nodes are actively in flight and
// asserts the run returns promptly with ctx.Err() rather than finishing
// the whole graph.
func TestMidRunCancellation(t *testing.T) {
	// Deep pipeline: 40002 nodes, so the run is nowhere near done when the
	// first node signals.
	d, err := gen.PipelineDAG(10000, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumNodes()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	var once sync.Once
	var computed atomic.Int64
	hook := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
		once.Do(func() { close(started) })
		computed.Add(1)
		time.Sleep(50 * time.Microsecond) // keep nodes in flight long enough to observe
		return 1
	}

	done := make(chan error, 1)
	go func() {
		_, err := New(d, Options{Workers: 4}).Run(ctx, hook)
		done <- err
	}()

	<-started
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return promptly after mid-run cancel")
	}
	if got := computed.Load(); got == 0 || got >= int64(n) {
		t.Fatalf("computed %d of %d nodes, want mid-run cancellation (0 < computed < n)", got, n)
	}
}

// TestSerialCtxCancellation covers the serial sweep's cooperative
// cancellation, which is what lets a cancelled dagd run stop before its
// parallel pass even starts.
func TestSerialCtxCancellation(t *testing.T) {
	d, err := gen.PipelineDAG(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mustLookup(DefaultWorkload).Serial(ctx, d, 0); err != context.Canceled {
		t.Fatalf("pathcount Serial = %v, want context.Canceled", err)
	}
}

func TestContextCancellation(t *testing.T) {
	d, err := gen.RandomDAG(2000, 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: run must bail out, not hang
	if _, err := New(d, Options{Workers: 4}).Run(ctx, PathCount(0)); err == nil {
		t.Error("cancelled run returned nil error")
	}
}

func TestExecutorReusable(t *testing.T) {
	d, err := gen.RandomDAG(100, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(d, Options{Workers: 4})
	first, err := ex.Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	second, err := ex.Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualCounts(t, first, second)
}

// goroutineID returns the calling goroutine's number, from the header line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestNodesExecutedExact pins the per-worker retirement tallies: whatever
// the shape and pool size, a completed run moves NodesExecuted by exactly
// the nodes it retired, so every tally was flushed once. A dynamic run that
// hits its growth bound must still end, with the bound's error, and a
// one-worker run executes every node on the caller's goroutine.
func TestNodesExecutedExact(t *testing.T) {
	static := []gen.Config{
		{Shape: gen.Random, Nodes: 2000, EdgeProb: 0.01, Seed: 3},
		{Shape: gen.Pipeline, Stages: 300, Width: 8},
		{Shape: gen.Chain, Nodes: 20000},
	}
	dynamic := gen.Config{Shape: gen.Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}
	caller := goroutineID()
	for _, workers := range []int{1, 2, 4} {
		var elsewhere atomic.Int64
		hook := func(id dag.NodeID, parents []dag.NodeID, values []uint64) uint64 {
			if workers == 1 && goroutineID() != caller {
				elsewhere.Add(1)
			}
			return PathCount(0)(id, parents, values)
		}
		check := func(name string, run func() ([]uint64, error)) {
			t.Helper()
			before := NodesExecuted()
			vals, err := run()
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, workers, err)
			}
			if got := NodesExecuted() - before; got != int64(len(vals)) {
				t.Errorf("%s P=%d: NodesExecuted moved by %d, want %d", name, workers, got, len(vals))
			}
		}
		for _, cfg := range static {
			d, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(cfg.Shape.String(), func() ([]uint64, error) {
				return New(d, Options{Workers: workers}).Run(context.Background(), hook)
			})
		}
		check("dynamic", func() ([]uint64, error) {
			dyn, err := gen.NewDynamic(dynamic, gen.DynLimits{})
			if err != nil {
				t.Fatal(err)
			}
			return RunDynamic(context.Background(), dyn, workers, hook)
		})
		if n := elsewhere.Load(); n > 0 {
			t.Errorf("P=1: %d nodes ran off the caller's goroutine", n)
		}

		bounded, err := gen.NewDynamic(dynamic, gen.DynLimits{MaxNodes: 3000})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := RunDynamic(context.Background(), bounded, workers, hook)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, gen.ErrGrowthBound) {
				t.Errorf("bounded dynamic P=%d: %v, want gen.ErrGrowthBound", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("bounded dynamic P=%d: no return after 10s", workers)
		}
	}
}
