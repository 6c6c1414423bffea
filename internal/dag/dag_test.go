package dag

import (
	"errors"
	"testing"
)

func mustBuild(t *testing.T, n int, edges [][2]NodeID) *DAG {
	t.Helper()
	d, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return d
}

func TestSelfLoopRejected(t *testing.T) {
	if _, err := FromEdges(3, [][2]NodeID{{1, 1}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("FromEdges with (1,1) = %v, want ErrCycle", err)
	}
}

func TestTwoCycleRejected(t *testing.T) {
	if _, err := FromEdges(2, [][2]NodeID{{0, 1}, {1, 0}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("FromEdges = %v, want ErrCycle", err)
	}
}

func TestLongerCycleRejected(t *testing.T) {
	if _, err := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("FromEdges = %v, want ErrCycle", err)
	}
}

func TestDiamondAccepted(t *testing.T) {
	d := mustBuild(t, 4, [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if got := d.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if got := d.InDegree(3); got != 2 {
		t.Errorf("InDegree(3) = %d, want 2", got)
	}
	if got := d.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	assertTopoValid(t, d)
	if srcs := d.Sources(); len(srcs) != 1 || srcs[0] != 0 {
		t.Errorf("Sources = %v, want [0]", srcs)
	}
	if sinks := d.Sinks(); len(sinks) != 1 || sinks[0] != 3 {
		t.Errorf("Sinks = %v, want [3]", sinks)
	}
}

func TestDisconnectedGraphAccepted(t *testing.T) {
	// Two components: 0→1 and 2→3, plus isolated node 4.
	d := mustBuild(t, 5, [][2]NodeID{{0, 1}, {2, 3}})
	assertTopoValid(t, d)
	if got := len(d.Sources()); got != 3 {
		t.Errorf("len(Sources) = %d, want 3 (0, 2, 4)", got)
	}
	if got := len(d.Sinks()); got != 3 {
		t.Errorf("len(Sinks) = %d, want 3 (1, 3, 4)", got)
	}
}

func TestEmptyAndSingleNode(t *testing.T) {
	d0 := mustBuild(t, 0, nil)
	if got := len(d0.TopoOrder()); got != 0 {
		t.Errorf("empty dag topo len = %d, want 0", got)
	}
	d1 := mustBuild(t, 1, nil)
	if got := d1.Depth(); got != 0 {
		t.Errorf("single-node Depth = %d, want 0", got)
	}
}

func TestEdgeOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, [][2]NodeID{{0, 2}}); err == nil {
		t.Error("FromEdges with (0,2) on a 2-node graph succeeded, want error")
	}
	if _, err := FromEdges(2, [][2]NodeID{{-1, 0}}); err == nil {
		t.Error("FromEdges with (-1,0) succeeded, want error")
	}
}

// assertTopoValid checks that TopoOrder is a permutation of all nodes in
// which every edge points forward.
func assertTopoValid(t *testing.T, d *DAG) {
	t.Helper()
	order := d.TopoOrder()
	if len(order) != d.NumNodes() {
		t.Fatalf("topo order has %d nodes, want %d", len(order), d.NumNodes())
	}
	pos := make(map[NodeID]int, len(order))
	for i, v := range order {
		if _, dup := pos[v]; dup {
			t.Fatalf("node %d appears twice in topo order", v)
		}
		pos[v] = i
	}
	for u := 0; u < d.NumNodes(); u++ {
		for _, v := range d.Children(NodeID(u)) {
			if pos[NodeID(u)] >= pos[v] {
				t.Errorf("edge (%d,%d) violates topo order", u, v)
			}
		}
	}
}
