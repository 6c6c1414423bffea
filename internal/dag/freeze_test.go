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
// can observe but which topological order a forward graph gets.
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

// forward reports whether every edge runs from a lower ID to a higher one.
func (d *refDAG) forward() bool {
	for u, children := range d.adj {
		for _, v := range children {
			if int(v) <= u {
				return false
			}
		}
	}
	return true
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
// the old entry points made, a map for repeated edges, then the old freeze.
func refBuild(n int, edges [][2]NodeID) (*refDAG, verdict) {
	seen := make(map[[2]NodeID]struct{})
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
		}
		seen[e] = struct{}{}
	}
	if hasDup {
		return nil, duplicate
	}
	d, err := refFreeze(n, edges)
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
	// A graph whose every edge runs up the IDs is ordered by ID; any other
	// keeps the reference's Kahn order.
	wantTopo := want.topo
	if want.forward() {
		wantTopo = make([]NodeID, want.n)
		for v := range wantTopo {
			wantTopo[v] = NodeID(v)
		}
	}
	if !slices.Equal(got.TopoOrder(), wantTopo) {
		t.Fatalf("TopoOrder = %v, want %v", got.TopoOrder(), wantTopo)
	}
	if !slices.Equal(got.Sources(), want.Sources()) || !slices.Equal(got.Sinks(), want.Sinks()) {
		t.Fatalf("Sources/Sinks = %v/%v, reference %v/%v", got.Sources(), got.Sinks(), want.Sources(), want.Sinks())
	}
	if got.Depth() != want.Depth() {
		t.Fatalf("Depth = %d, reference %d", got.Depth(), want.Depth())
	}
}

// byChild groups edges stably by child: off and parents are the CSR parent
// lists FromParents takes, grouped the same edges as a list. ok is false
// when some edge's child is out of range, so it has no list to go in.
func byChild(n int, edges [][2]NodeID) (off []int32, parents []NodeID, grouped [][2]NodeID, ok bool) {
	off = make([]int32, n+1)
	for _, e := range edges {
		if uint(e[1]) >= uint(n) {
			return nil, nil, nil, false
		}
		off[e[1]+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	parents = make([]NodeID, len(edges))
	grouped = make([][2]NodeID, len(edges))
	next := slices.Clone(off[:n])
	for _, e := range edges {
		parents[next[e[1]]] = e[0]
		grouped[next[e[1]]] = e
		next[e[1]]++
	}
	return off, parents, grouped, true
}

// FuzzFreeze drives arbitrary small edge lists — out-of-range endpoints,
// self-loops, repeats and cycles included — through the CSR freeze and
// through the reference, and requires the same verdict
// and, when accepted, the same graph accessor for accessor. The one
// accessor that may differ is TopoOrder: it must be 0..n-1 when every edge
// runs forward, and the reference's Kahn order otherwise.
//
// Each list is then grouped stably by child and given to both constructors:
// to FromEdges as an edge list, to FromParents as parent lists. FromParents
// must refuse whatever FromEdges refuses and every edge that does not run
// upward, and when both accept, build the reference's graph of the grouped
// list, whose children lists are ascending.
func FuzzFreeze(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 1, 3, 2, 4, 3, 4})       // diamond
	f.Add(uint8(4), []byte{1, 2, 1, 2, 2, 3, 1, 2, 3, 4}) // repeats
	f.Add(uint8(3), []byte{1, 2, 2, 3, 3, 1})             // cycle
	f.Add(uint8(3), []byte{2, 2})                         // self-loop
	f.Add(uint8(3), []byte{0, 1, 1, 4})                   // -1 and n
	f.Add(uint8(2), []byte{1, 2, 2, 1, 1, 2})             // two-cycle and a repeat
	f.Add(uint8(0), []byte{})                             // empty graph
	f.Add(uint8(9), []byte{6, 8, 1, 4, 3, 4, 1, 2, 4, 8, 2, 8, 3, 6, 1, 8, 4, 6, 8, 9, 2, 3})
	// Children lists out of ascending order that repeat an edge: forward, then
	// with backward edges, so both the duplicate pass and Kahn's run.
	f.Add(uint8(4), []byte{1, 4, 1, 2, 3, 4, 1, 4})
	f.Add(uint8(5), []byte{3, 1, 3, 5, 3, 2, 3, 1, 2, 4})
	f.Add(uint8(3), []byte{1, 3, 2, 3, 1, 3}) // node 2 lists parent 0 twice
	f.Add(uint8(3), []byte{3, 1, 1, 2})       // back edge (2,0), acyclic
	f.Add(uint8(24), []byte{1, 1})            // n = 0 with an edge
	f.Fuzz(func(t *testing.T, nodes uint8, raw []byte) {
		n := int(nodes % 24)
		// A byte maps onto [-1, n]: one value below the range, one above.
		edges := make([][2]NodeID, len(raw)/2)
		for i := range edges {
			edges[i] = [2]NodeID{NodeID(int(raw[2*i])%(n+2) - 1), NodeID(int(raw[2*i+1])%(n+2) - 1)}
		}

		want, wantVerdict := refBuild(n, edges)
		got, err := FromEdges(n, edges)
		if v := classify(err); v != wantVerdict {
			t.Fatalf("FromEdges(%d, %v): %s (%v), reference %s", n, edges, v, err, wantVerdict)
		}
		if err == nil {
			assertSameGraph(t, got, want)
			// Released, so later inputs freeze into recycled arrays: under
			// the poison tag a slot the freeze reads before writing reads -1.
			defer got.Release()
		}

		off, parents, grouped, ok := byChild(n, edges)
		if !ok {
			return // FromEdges refused it above
		}
		_, errGrouped := FromEdges(n, grouped)
		if (errGrouped == nil) != (err == nil) {
			t.Fatalf("FromEdges(%d, %v) = %v, but grouped by child %v: %v", n, edges, err, grouped, errGrouped)
		}
		upward := true
		for _, e := range edges {
			upward = upward && e[0] < e[1]
		}
		fromParents, errParents := FromParents(n, off, parents)
		if err != nil || !upward {
			if errParents == nil {
				t.Fatalf("FromParents(%d, %v, %v) accepted a list FromEdges refuses (%v) or with an edge not upward", n, off, parents, err)
			}
			return
		}
		if errParents != nil {
			t.Fatalf("FromParents(%d, %v, %v): %v, FromEdges accepts it", n, off, parents, errParents)
		}
		wantGrouped, _ := refBuild(n, grouped)
		assertSameGraph(t, fromParents, wantGrouped)
		fromParents.Release()
	})
}

// TestReleaseLeavesBorrowedParents pins the two ownership rules of Release:
// a graph laid out over borrowed parent arrays leaves them as they were
// (under the poison tag a recycled array reads all ones), and a released
// DAG can be released again.
func TestReleaseLeavesBorrowedParents(t *testing.T) {
	// Class-sized capacities, which a Put would take.
	off := []int32{0, 0, 1, 3}
	parents := append(make([]NodeID, 0, 4), 0, 0, 1)
	kidOff, kids := Offsets(4), IDs(3)
	kidOff[0], kidOff[1], kidOff[2], kidOff[3] = 0, 0, 2, 3
	FillChildren(kidOff, kids, off, parents)
	d := Laid(Layout{ParentOff: off, Parents: parents, ChildOff: kidOff, Children: kids, Depth: 2, BorrowParents: true})
	if got := d.Depth(); got != 2 {
		t.Fatalf("Depth = %d, want 2", got)
	}
	if !slices.Equal(d.Children(0), []NodeID{1, 2}) || !slices.Equal(d.Children(1), []NodeID{2}) {
		t.Fatalf("FillChildren wrote %v, want [1 2 2]", kids)
	}
	d.Release()
	d.Release()
	if off[3] != 3 || parents[2] != 1 {
		t.Fatalf("Release reached the borrowed arrays: off %v, parents %v", off, parents)
	}
	// Nothing of the caller's is handed out again.
	for i := 0; i < 8; i++ {
		o, p := Offsets(4), IDs(3)
		if &o[0] == &off[0] || &p[0] == &parents[0] {
			t.Fatal("Offsets or IDs returned an array the layout borrowed")
		}
	}
}

// TestFromParentsRejects pins that every malformed parent CSR is refused
// with an error naming its defect, none of them by a panic.
func TestFromParentsRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		off  []int32
		list []NodeID
		want string
	}{
		{"short offsets", 2, []int32{0, 0}, nil, "2 parent offsets for 2 nodes, want 3"},
		{"long offsets", 1, []int32{0, 0, 0}, nil, "3 parent offsets for 1 nodes, want 2"},
		{"first offset not 0", 2, []int32{1, 1, 1}, []NodeID{0}, "start at 1"},
		{"offsets decrease", 3, []int32{0, 2, 1, 2}, []NodeID{0, 0}, "decrease at node 1"},
		{"offset past the list inside", 2, []int32{0, 5, 1}, []NodeID{0}, "decrease at node 1"},
		{"last offset short of the list", 2, []int32{0, 0, 1}, []NodeID{0, 0}, "end at 1, but the list holds 2"},
		{"last offset past the list", 2, []int32{0, 0, 2}, []NodeID{0}, "end at 2, but the list holds 1"},
		{"parent equals child", 2, []int32{0, 0, 1}, []NodeID{1}, "self-loop on node 1"},
		{"parent above child", 3, []int32{0, 1, 1, 1}, []NodeID{2}, "edge (2,0) does not run upward"},
		{"parent below zero", 2, []int32{0, 0, 1}, []NodeID{-1}, "edge (-1,1) out of range"},
		{"repeated parent", 3, []int32{0, 0, 1, 3}, []NodeID{0, 1, 1}, "duplicate edge (1,2)"},
		{"too many nodes", MaxSize + 1, nil, nil, "nodes and 0 edges"},
		{"negative nodes", -1, nil, nil, "-1 nodes"},
	} {
		d, err := FromParents(tc.n, tc.off, tc.list)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FromParents(%d, %v, %v) = %v, %v; want an error containing %q", tc.name, tc.n, tc.off, tc.list, d, err, tc.want)
		}
	}
	if _, err := FromParents(2, []int32{0, 0, 1}, []NodeID{1}); !errors.Is(err, ErrCycle) {
		t.Errorf("self-loop: %v does not wrap ErrCycle", err)
	}
	if _, err := FromParents(0, []int32{0}, nil); err != nil {
		t.Errorf("empty graph: %v", err)
	}
}

// TestDuplicateEdgePolicy pins that FromEdges refuses a list that repeats an
// edge, and names the edge.
func TestDuplicateEdgePolicy(t *testing.T) {
	edges := [][2]NodeID{{0, 2}, {0, 1}, {1, 2}, {0, 2}, {0, 1}}
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
