package dag

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// refDAG is the slice-of-slices DAG that preceded the CSR layout, with its
// freeze, Kahn pass and accessors moved here verbatim (only the type's name
// changed). It is the reference FuzzFreeze compares the CSR freeze against:
// the two must accept the same edge lists and agree on everything a caller
// can observe.
type refDAG struct {
	n      int
	nEdges int
	adj    [][]NodeID // children of each node
	radj   [][]NodeID // parents of each node
	indeg  []int
	outdeg []int
	topo   []NodeID
}

func refFreeze(n int, edges [][2]NodeID) (*refDAG, error) {
	d := &refDAG{
		n:      n,
		adj:    make([][]NodeID, n),
		radj:   make([][]NodeID, n),
		indeg:  make([]int, n),
		outdeg: make([]int, n),
		nEdges: len(edges),
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		d.adj[u] = append(d.adj[u], v)
		d.radj[v] = append(d.radj[v], u)
		d.indeg[v]++
		d.outdeg[u]++
	}
	order, err := refKahn(d)
	if err != nil {
		return nil, err
	}
	d.topo = order
	return d, nil
}

func refKahn(d *refDAG) ([]NodeID, error) {
	pending := make([]int, d.n)
	copy(pending, d.indeg)
	queue := make([]NodeID, 0, d.n)
	for v := 0; v < d.n; v++ {
		if pending[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	order := make([]NodeID, 0, d.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range d.adj[u] {
			pending[v]--
			if pending[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != d.n {
		return nil, fmt.Errorf("dag: %d of %d nodes unreachable by Kahn's algorithm: %w",
			d.n-len(order), d.n, ErrCycle)
	}
	return order, nil
}

func (d *refDAG) Sources() []NodeID {
	var s []NodeID
	for v := 0; v < d.n; v++ {
		if d.indeg[v] == 0 {
			s = append(s, NodeID(v))
		}
	}
	return s
}

func (d *refDAG) Sinks() []NodeID {
	var s []NodeID
	for v := 0; v < d.n; v++ {
		if d.outdeg[v] == 0 {
			s = append(s, NodeID(v))
		}
	}
	return s
}

func (d *refDAG) Depth() int {
	depth := make([]int, d.n)
	max := 0
	for _, u := range d.topo {
		for _, v := range d.adj[u] {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
				if depth[v] > max {
					max = depth[v]
				}
			}
		}
	}
	return max
}

// verdict classes an outcome of building a graph.
type verdict string

const (
	accepted  verdict = "accepted"
	outOfRng  verdict = "out of range"
	selfLoop  verdict = "self-loop"
	duplicate verdict = "duplicate"
	cyclic    verdict = "cycle"
)

func classify(err error) verdict {
	switch {
	case err == nil:
		return accepted
	case strings.Contains(err.Error(), "duplicate edge"):
		return duplicate
	case strings.Contains(err.Error(), "self-loop") && errors.Is(err, ErrCycle):
		return selfLoop
	case errors.Is(err, ErrCycle):
		return cyclic
	case strings.Contains(err.Error(), "out of range"):
		return outOfRng
	}
	return verdict("unclassified: " + err.Error())
}

// refBuild is the old construction path end to end: the per-edge checks
// Builder.AddEdge and FromEdges made, the map Builder deduplicated through,
// then the old freeze. With dropDuplicates it is the old Builder; without,
// it is what FromEdges' callers had to guarantee for themselves.
func refBuild(n int, edges [][2]NodeID, dropDuplicates bool) (*refDAG, verdict) {
	seen := make(map[[2]NodeID]struct{})
	var distinct [][2]NodeID
	hasDup := false
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, outOfRng
		}
		if u == v {
			return nil, selfLoop
		}
		if _, dup := seen[e]; dup {
			hasDup = true
			continue
		}
		seen[e] = struct{}{}
		distinct = append(distinct, e)
	}
	if hasDup && !dropDuplicates {
		return nil, duplicate
	}
	d, err := refFreeze(n, distinct)
	if err != nil {
		return nil, cyclic
	}
	return d, accepted
}

func assertSameGraph(t *testing.T, got *DAG, want *refDAG) {
	t.Helper()
	if got.NumNodes() != want.n || got.NumEdges() != want.nEdges {
		t.Fatalf("size %d nodes/%d edges, reference %d/%d", got.NumNodes(), got.NumEdges(), want.n, want.nEdges)
	}
	for v := 0; v < want.n; v++ {
		id := NodeID(v)
		if c := got.Children(id); !slices.Equal(c, want.adj[v]) {
			t.Fatalf("Children(%d) = %v, reference %v", v, c, want.adj[v])
		}
		if p := got.Parents(id); !slices.Equal(p, want.radj[v]) {
			t.Fatalf("Parents(%d) = %v, reference %v", v, p, want.radj[v])
		}
		if got.InDegree(id) != want.indeg[v] || got.OutDegree(id) != want.outdeg[v] {
			t.Fatalf("degrees of %d = in %d out %d, reference in %d out %d",
				v, got.InDegree(id), got.OutDegree(id), want.indeg[v], want.outdeg[v])
		}
	}
	if !slices.Equal(got.TopoOrder(), want.topo) {
		t.Fatalf("TopoOrder = %v, reference %v", got.TopoOrder(), want.topo)
	}
	if !slices.Equal(got.Sources(), want.Sources()) || !slices.Equal(got.Sinks(), want.Sinks()) {
		t.Fatalf("Sources/Sinks = %v/%v, reference %v/%v", got.Sources(), got.Sinks(), want.Sources(), want.Sinks())
	}
	if got.Depth() != want.Depth() {
		t.Fatalf("Depth = %d, reference %d", got.Depth(), want.Depth())
	}
}

// FuzzFreeze drives arbitrary small edge lists — out-of-range endpoints,
// self-loops, repeats and cycles included — through both entry points of
// the CSR freeze and through the reference, and requires the same verdict
// and, when accepted, the same graph accessor for accessor.
func FuzzFreeze(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 1, 3, 2, 4, 3, 4})       // diamond
	f.Add(uint8(4), []byte{1, 2, 1, 2, 2, 3, 1, 2, 3, 4}) // repeats
	f.Add(uint8(3), []byte{1, 2, 2, 3, 3, 1})             // cycle
	f.Add(uint8(3), []byte{2, 2})                         // self-loop
	f.Add(uint8(3), []byte{0, 1, 1, 4})                   // -1 and n
	f.Add(uint8(2), []byte{1, 2, 2, 1, 1, 2})             // two-cycle and a repeat
	f.Add(uint8(0), []byte{})                             // empty graph
	f.Add(uint8(9), []byte{6, 8, 1, 4, 3, 4, 1, 2, 4, 8, 2, 8, 3, 6, 1, 8, 4, 6, 8, 9, 2, 3})
	f.Fuzz(func(t *testing.T, nodes uint8, raw []byte) {
		n := int(nodes % 24)
		// A byte maps onto [-1, n]: one value below the range, one above.
		edges := make([][2]NodeID, len(raw)/2)
		for i := range edges {
			edges[i] = [2]NodeID{NodeID(int(raw[2*i])%(n+2) - 1), NodeID(int(raw[2*i+1])%(n+2) - 1)}
		}

		want, wantVerdict := refBuild(n, edges, false)
		got, err := FromEdges(n, edges)
		if v := classify(err); v != wantVerdict {
			t.Fatalf("FromEdges(%d, %v): %s (%v), reference %s", n, edges, v, err, wantVerdict)
		}
		if err == nil {
			assertSameGraph(t, got, want)
		}

		want, wantVerdict = refBuild(n, edges, true)
		b := NewBuilder(n)
		for _, e := range edges {
			if err = b.AddEdge(e[0], e[1]); err != nil {
				break
			}
		}
		if err == nil {
			got, err = b.Build()
		}
		if v := classify(err); v != wantVerdict {
			t.Fatalf("Builder(%d, %v): %s (%v), reference %s", n, edges, v, err, wantVerdict)
		}
		if err == nil {
			assertSameGraph(t, got, want)
		}
	})
}

// TestDuplicateEdgePolicy pins the one difference between the two entry
// points: Builder keeps the first occurrence of a repeated edge in place,
// FromEdges refuses the list and names the edge.
func TestDuplicateEdgePolicy(t *testing.T) {
	edges := [][2]NodeID{{0, 2}, {0, 1}, {1, 2}, {0, 2}, {0, 1}}
	d := mustBuild(t, 3, edges)
	if d.NumEdges() != 3 || !slices.Equal(d.Children(0), []NodeID{2, 1}) || !slices.Equal(d.Parents(2), []NodeID{0, 1}) {
		t.Errorf("Builder kept %d edges, Children(0) = %v, Parents(2) = %v; want 3, [2 1], [0 1]",
			d.NumEdges(), d.Children(0), d.Parents(2))
	}
	_, err := FromEdges(3, edges)
	if classify(err) != duplicate || !(strings.Contains(err.Error(), "(0,2)") || strings.Contains(err.Error(), "(0,1)")) {
		t.Errorf("FromEdges with repeated edges = %v, want a duplicate-edge error naming (0,2) or (0,1)", err)
	}
	if _, err := FromEdges(3, edges[:3]); err != nil {
		t.Errorf("FromEdges without the repeats: %v", err)
	}
}

// TestAdjacencyListsDoNotAlias pins that the sub-slices handed out of the
// flat arrays are capacity-limited: appending to one node's list must copy,
// not overwrite the neighbour stored after it.
func TestAdjacencyListsDoNotAlias(t *testing.T) {
	d := mustBuild(t, 4, [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	for v := NodeID(0); v < 4; v++ {
		for _, list := range [][]NodeID{d.Children(v), d.Parents(v)} {
			if cap(list) != len(list) {
				t.Errorf("node %d: list %v has cap %d beyond its len %d", v, list, cap(list), len(list))
			}
		}
	}
	_ = append(d.Children(0), 99)
	_ = append(d.Parents(1), 99)
	if c := d.Children(1); !slices.Equal(c, []NodeID{3}) {
		t.Errorf("Children(1) = %v after appending to Children(0), want [3]", c)
	}
	if p := d.Parents(2); !slices.Equal(p, []NodeID{0}) {
		t.Errorf("Parents(2) = %v after appending to Parents(1), want [0]", p)
	}
}

// TestCheckSize exercises the offset-range guard on counts alone; nothing of
// the refused size is allocated.
func TestCheckSize(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		ok   bool
	}{
		{0, 0, true},
		{MaxSize, MaxSize, true},
		{MaxSize + 1, 0, false},
		{2, MaxSize + 1, false},
		{math.MaxInt, math.MaxInt, false},
		{-1, 0, false},
		{0, -1, false},
	} {
		if err := CheckSize(tc.n, tc.m); (err == nil) != tc.ok {
			t.Errorf("CheckSize(%d, %d) = %v, want ok=%v", tc.n, tc.m, err, tc.ok)
		}
	}
	if _, err := FromEdges(MaxSize+1, nil); err == nil {
		t.Error("FromEdges accepted more nodes than an offset can address")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("FromEdges accepted a negative node count")
	}
}
