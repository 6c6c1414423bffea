package sched

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
)

// TestRegistryBuiltins pins the built-in table: its names, sorted, and what
// the empty name and an unknown one resolve to.
func TestRegistryBuiltins(t *testing.T) {
	if got, want := Workloads(), []string{"hashchain", "longestpath", "pathcount"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Workloads() = %v, want %v", got, want)
	}
	def, err := LookupWorkload("")
	if err != nil {
		t.Fatalf("LookupWorkload(\"\"): %v", err)
	}
	if def.Name() != DefaultWorkload {
		t.Errorf("empty name resolved to %q, want %q", def.Name(), DefaultWorkload)
	}
	if _, err := LookupWorkload("bogus"); err == nil {
		t.Error("LookupWorkload(bogus) succeeded")
	} else if !strings.Contains(err.Error(), "pathcount") {
		t.Errorf("unknown-workload error should name the known set, got %v", err)
	}
}

// TestAllWorkloadsParallelMatchesSerial is the table-wide version of the
// original pathcount self-check: every built-in workload must verify its
// parallel result against its own serial reference, on both generator
// shapes, with and without emulated work.
func TestAllWorkloadsParallelMatchesSerial(t *testing.T) {
	random, err := gen.RandomDAG(500, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := gen.PipelineDAG(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Workloads() {
		w, err := LookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			d     *dag.DAG
			work  int
		}{
			{"random", random, 0},
			{"random+work", random, 20},
			{"pipeline", pipeline, 0},
		} {
			serial, err := w.Serial(context.Background(), tc.d, tc.work)
			if err != nil {
				t.Fatalf("%s/%s: Serial: %v", name, tc.label, err)
			}
			parallel, err := New(tc.d, Options{Workers: 8}).Run(context.Background(), w.Compute(tc.work))
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", name, tc.label, err)
			}
			if err := w.Verify(tc.d, serial, parallel); err != nil {
				t.Errorf("%s/%s: %v", name, tc.label, err)
			}
		}
	}
}

func TestVerifyReportsDivergence(t *testing.T) {
	d, err := gen.PipelineDAG(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := LookupWorkload(DefaultWorkload)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := w.Serial(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := make([]uint64, len(serial))
	copy(corrupt, serial)
	corrupt[3]++
	if err := w.Verify(d, serial, corrupt); err == nil {
		t.Error("Verify accepted a corrupted result")
	} else if !strings.Contains(err.Error(), "node 3") {
		t.Errorf("Verify error should name the diverging node, got %v", err)
	}
	if err := w.Verify(d, serial, serial[:len(serial)-1]); err == nil {
		t.Error("Verify accepted a length mismatch")
	}
}

// TestHashChainOrderSensitive proves the hashchain mix is non-commutative:
// the same three-node graph built with its two edges in opposite order
// (which flips the Parents order of the join node) must produce a different
// digest at the join. This is the property that lets the self-check catch
// out-of-order parent delivery, not just missed dependencies.
func TestHashChainOrderSensitive(t *testing.T) {
	build := func(first, second dag.NodeID) *dag.DAG {
		d, err := dag.FromEdges(3, [][2]dag.NodeID{{first, 2}, {second, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	w, err := LookupWorkload("hashchain")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.Serial(context.Background(), build(0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := w.Serial(context.Background(), build(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != bb[0] || a[1] != bb[1] {
		t.Fatal("source digests changed with edge order; they must depend only on node ID")
	}
	if a[2] == bb[2] {
		t.Errorf("join digest %#x identical under reversed parent order; hashchain mix is commutative", a[2])
	}
}

func TestLongestPathMatchesDepth(t *testing.T) {
	d, err := gen.PipelineDAG(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := LookupWorkload("longestpath")
	if err != nil {
		t.Fatal(err)
	}
	values, err := w.Serial(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := dag.NodeID(d.NumNodes() - 1)
	if got, want := values[sink], uint64(d.Depth()); got != want {
		t.Errorf("longestpath sink value = %d, want graph depth %d", got, want)
	}
	for _, s := range d.Sources() {
		if values[s] != 0 {
			t.Errorf("source %d depth = %d, want 0", s, values[s])
		}
	}
}

// TestManyWorkersFewNodes parks most of the pool immediately and exercises
// the wake/steal/termination handshake with far more workers than nodes.
func TestManyWorkersFewNodes(t *testing.T) {
	d, err := dag.FromEdges(4, [][2]dag.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		parallel, err := New(d, Options{Workers: 32}).Run(context.Background(), PathCount(0))
		if err != nil {
			t.Fatal(err)
		}
		assertEqualCounts(t, serialCounts(t, d, 0), parallel)
	}
}

// TestWideFanout drives the batched-enqueue path hard: one source retires
// and publishes ~2000 ready children in a single batch, which idle workers
// must then steal and drain.
func TestWideFanout(t *testing.T) {
	const width = 2000
	source, sink := dag.NodeID(0), dag.NodeID(width+1)
	var edges [][2]dag.NodeID
	for i := dag.NodeID(1); i <= width; i++ {
		edges = append(edges, [2]dag.NodeID{source, i}, [2]dag.NodeID{i, sink})
	}
	d, err := dag.FromEdges(width+2, edges)
	if err != nil {
		t.Fatal(err)
	}
	serial := serialCounts(t, d, 0)
	parallel, err := New(d, Options{Workers: 8}).Run(context.Background(), PathCount(0))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualCounts(t, serial, parallel)
	if serial[sink] != width {
		t.Errorf("fan-out sink count = %d, want %d", serial[sink], width)
	}
}
