package gen

import (
	"math"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// TestOversizeShapesRefused pins that dimensions beyond what a DAG's int32
// offsets can index are refused from the counts, before any edge list is
// allocated: dagbench hands its flags to the generators without admission's
// caps in between.
func TestOversizeShapesRefused(t *testing.T) {
	if _, err := ChainDAG(dag.MaxSize + 1); err == nil {
		t.Error("ChainDAG(MaxSize+1) succeeded, want error")
	}
	// 3·stages·width bounds the edge count, so a third of MaxSize is the cut.
	for _, dims := range [][2]int{{dag.MaxSize/3 + 1, 1}, {1, dag.MaxSize/3 + 1}, {1 << 16, 1 << 16}, {math.MaxInt, 2}} {
		if _, err := PipelineDAG(dims[0], dims[1]); err == nil {
			t.Errorf("PipelineDAG(%d,%d) succeeded, want error", dims[0], dims[1])
		}
	}
}

// TestRandomReserve pins that RandomDAG's up-front edge capacity covers the
// graph at benchmark sizes and neither wraps nor balloons at sizes the CLI
// can be handed (n·(n-1) overflows int64 from n ≈ 3.04e9).
func TestRandomReserve(t *testing.T) {
	d, err := RandomDAG(2000, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := randomReserve(2000, 0.01); got < d.NumEdges() || got > 2*d.NumEdges() {
		t.Errorf("randomReserve(2000, 0.01) = %d for a graph of %d edges", got, d.NumEdges())
	}
	if got := randomReserve(2, 0); got != 4 {
		t.Errorf("randomReserve(2, 0) = %d, want 4", got)
	}
	for _, n := range []int{1 << 16, 4000000000, math.MaxInt} {
		if got := randomReserve(n, 1); got != 1<<20 {
			t.Errorf("randomReserve(%d, 1) = %d, want the 1<<20 cap", n, got)
		}
	}
}
