// Package dag provides an immutable directed-acyclic-graph model: nodes,
// edges, adjacency in both directions, cycle detection via Kahn's algorithm,
// and topological ordering.
//
// A forward graph — every edge from a lower ID to a higher one — has
// ascending IDs as its topological order and keeps no order array: Forward
// reports it, and a sweep over such a graph iterates IDs. Every generated
// graph is forward; only an explicit graph with an edge that runs down the
// IDs keeps an order, Kahn's.
//
// A DAG is stored compressed-sparse-row: every children list back to back in
// one flat array with an offset per node, and the same for parents, each
// entry a 32-bit NodeID. Three constructors build it, chosen by who states
// the graph:
//
//   - FromEdges freezes an edge list from outside: a client's explicit spec,
//     or the random generator's draws. It validates each edge and fills both
//     arrays in a stable counting pass (every Children(u) and Parents(v)
//     keeps edge-list order). The two remaining passes run only when the
//     edge list leaves them work: repeated edges are looked for with a stamp
//     array unless every children list is strictly ascending (then none can
//     repeat), and Kahn's algorithm orders the graph unless every edge runs
//     from a lower ID to a higher one (then 0..n-1 is the order and no cycle
//     is possible).
//   - FromParents freezes a forward graph stated as parent lists in CSR
//     form, checking every offset and parent, and fills the children,
//     ascending, in one counting pass; 0..n-1 is the order. No generator
//     calls it: it is the reference the generators' layouts are tested
//     against (internal/gen's TestLaidShapes and FuzzLaidShapes).
//   - Laid takes a forward graph its generator laid out whole: both CSR
//     sides and the depth, stated by formula (chain, pipeline) or by the
//     dynamic expander's counts, whose children FillChildren writes, the
//     same fill FromParents runs. It checks nothing at run time; the tests
//     above hold each layout to FromParents' freeze of the same parent
//     lists.
//
// A repeated edge is an error like any other defect in the two freezes.
//
// Once built, a DAG is never mutated; all accessor methods are safe for
// concurrent use. Its arrays come from the package's free lists (see
// internal/slab), and Release gives them back: the owner of a DAG that is
// done with it releases it, after which neither the DAG nor any slice its
// methods returned may be used. A DAG that is never released is garbage
// like any other value.
package dag

import (
	"errors"
	"fmt"
	"math"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/slab"
)

// The free lists every array of a DAG comes from: ids for the adjacency
// lists and a non-forward graph's topological order, offsets for the CSR
// offsets and the package's int32 scratch.
var (
	ids     slab.List[NodeID]
	offsets slab.List[int32]
)

// Offsets and IDs return recycled arrays of length n, not cleared, from the
// free lists a DAG's offsets and its lists come from: a generator lays out
// each side of an n-node graph's m edges in Offsets(n+1) and IDs(m) and
// hands them to Laid, and gen's dynamic expander grows its levels in them.
// ReleaseArrays takes back what a caller is done with; either side may be
// nil.
func Offsets(n int) []int32 { return offsets.Get(n) }

func IDs(n int) []NodeID { return ids.Get(n) }

func ReleaseArrays(off []int32, list []NodeID) {
	offsets.Put(off)
	ids.Put(list)
}

// NodeID identifies a node in a DAG. Nodes are dense integers in [0, N).
// 32 bits address every node a DAG can hold (MaxSize), at half the bytes of
// an int per adjacency entry. Convert an int endpoint only after checking it
// is in range: a conversion keeps the low 32 bits and can land inside it.
type NodeID int32

// ErrCycle is returned (wrapped) when the graph is cyclic.
var ErrCycle = errors.New("dag: graph contains a cycle")

// MaxSize bounds a DAG's node count and its edge count: offsets are int32.
const MaxSize = math.MaxInt32

// CheckSize reports whether n nodes and m edges fit a DAG; a generator asks
// before it allocates an edge list.
func CheckSize(n, m int) error {
	if n < 0 || n > MaxSize || m < 0 || m > MaxSize {
		return fmt.Errorf("dag: %d nodes and %d edges: each must be in [0,%d]", n, m, MaxSize)
	}
	return nil
}

// validEdge reports whether (u,v) can be an edge of an n-node DAG; it is
// small enough to inline into freeze's per-edge loop. edgeError says why not.
func validEdge(n int, u, v NodeID) bool {
	return uint(u) < uint(n) && uint(v) < uint(n) && u != v
}

func edgeError(n int, u, v NodeID) error {
	if uint(u) >= uint(n) || uint(v) >= uint(n) {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	return fmt.Errorf("dag: self-loop on node %d: %w", u, ErrCycle)
}

// adjacency is one direction of a graph in compressed-sparse-row form: the
// neighbours of u are list[off[u]:off[u+1]].
type adjacency struct {
	off  []int32
	list []NodeID
}

func (a *adjacency) of(id NodeID) []NodeID {
	lo, hi := a.off[id], a.off[id+1]
	return a.list[lo:hi:hi]
}

// isolated returns the nodes with no neighbour in this direction, ascending.
func (a *adjacency) isolated() []NodeID {
	var s []NodeID
	for v := 0; v+1 < len(a.off); v++ {
		if a.off[v] == a.off[v+1] {
			s = append(s, NodeID(v))
		}
	}
	return s
}

// repeat reports one (u, x) where x appears twice in u's list, or u = -1 if
// no list repeats a neighbour. stamp[x] == u+1 marks x as seen in u's list.
func (a *adjacency) repeat() (u, x NodeID) {
	stamp := offsets.Get(len(a.off) - 1)
	defer offsets.Put(stamp)
	clear(stamp)
	for owner := range stamp {
		for _, nb := range a.of(NodeID(owner)) {
			if stamp[nb] == int32(owner)+1 {
				return NodeID(owner), nb
			}
			stamp[nb] = int32(owner) + 1
		}
	}
	return -1, 0
}

// release returns the adjacency's arrays to the free lists.
func (a *adjacency) release() {
	offsets.Put(a.off)
	ids.Put(a.list)
}

// ascending reports whether every list is strictly ascending, in which case
// no list repeats a neighbour.
func (a *adjacency) ascending() bool {
	for u := 0; u+1 < len(a.off); u++ {
		list := a.list[a.off[u]:a.off[u+1]]
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				return false
			}
		}
	}
	return true
}

// FromEdges freezes an n-node graph, nodes 0..n-1, from an edge list, which
// it does not retain. The list is a client's or a generator's statement of
// the graph, so every defect is an error: an endpoint out of range, a
// self-loop or a cycle (both wrapping ErrCycle), or a repeated edge. A
// generator that lays out both sides of a forward graph hands them to Laid.
func FromEdges(n int, edges [][2]NodeID) (*DAG, error) {
	if err := CheckSize(n, len(edges)); err != nil {
		return nil, err
	}
	// Degrees are counted two slots ahead of their node: the prefix sum then
	// leaves the start of u's list in slot u+1, the fill advances it to the
	// end — the start of u+1's — and slots 0..n are the offsets. Slots are
	// computed in int: u+2 overflows a NodeID near MaxSize. Only the
	// offsets need clearing: the fill writes every list entry.
	d := &DAG{
		out:   adjacency{offsets.Get(n + 2), ids.Get(len(edges))},
		in:    adjacency{offsets.Get(n + 2), ids.Get(len(edges))},
		depth: -1,
	}
	out, in := &d.out, &d.in
	clear(out.off)
	clear(in.off)
	forward := true
	for _, e := range edges {
		u, v := e[0], e[1]
		if !validEdge(n, u, v) {
			d.Release()
			return nil, edgeError(n, u, v)
		}
		forward = forward && u < v
		out.off[int(u)+2]++
		in.off[int(v)+2]++
	}
	for i := 2; i < n+2; i++ {
		out.off[i] += out.off[i-1]
		in.off[i] += in.off[i-1]
	}
	for _, e := range edges {
		u, v := int(e[0])+1, int(e[1])+1
		out.list[out.off[u]] = e[1]
		out.off[u]++
		in.list[in.off[v]] = e[0]
		in.off[v]++
	}
	out.off, in.off = out.off[:n+1], in.off[:n+1]
	if !out.ascending() {
		if u, v := out.repeat(); u >= 0 {
			d.Release()
			return nil, fmt.Errorf("dag: duplicate edge (%d,%d)", u, v)
		}
	}

	if forward {
		// Every edge runs up the IDs, so ascending ID order is topological
		// and the graph keeps no order array.
		return d, nil
	}
	// Kahn's algorithm, the order doubling as the work queue: a node joins it
	// when pending, its count of unvisited parents, reaches zero. No node
	// joins twice, so the order never outgrows its n slots.
	topo := ids.Get(n)[:0]
	pending := offsets.Get(n)
	defer offsets.Put(pending)
	for v := range pending {
		if pending[v] = in.off[v+1] - in.off[v]; pending[v] == 0 {
			topo = append(topo, NodeID(v))
		}
	}
	for i := 0; i < len(topo); i++ {
		for _, v := range out.of(topo[i]) {
			if pending[v]--; pending[v] == 0 {
				topo = append(topo, v)
			}
		}
	}
	d.topo = topo
	if len(topo) != n {
		d.Release()
		return nil, fmt.Errorf("dag: %d of %d nodes unreachable by Kahn's algorithm: %w", n-len(topo), n, ErrCycle)
	}
	return d, nil
}

// FromParents freezes an n-node forward graph from its parent lists in
// compressed-sparse-row form: the parents of v are list[off[v]:off[v+1]], and
// Parents(v) keeps that order. Children are filled in ascending order, and
// the graph is forward: it keeps no order array. Every defect is an error:
// offsets that are not n+1 non-decreasing values from 0 to len(list), a
// parent that is not in [0, v) (a self-loop wraps ErrCycle), or a repeated
// parent.
//
// FromParents keeps off and list as the DAG's parents side, and Release
// recycles them with the rest of the DAG: the caller must not use them
// afterwards. Offsets and IDs take them from the same free lists.
func FromParents(n int, off []int32, list []NodeID) (*DAG, error) {
	if err := CheckSize(n, len(list)); err != nil {
		return nil, err
	}
	switch {
	case len(off) != n+1:
		return nil, fmt.Errorf("dag: %d parent offsets for %d nodes, want %d", len(off), n, n+1)
	case off[0] != 0:
		return nil, fmt.Errorf("dag: parent offsets start at %d, want 0", off[0])
	case int(off[n]) != len(list):
		return nil, fmt.Errorf("dag: parent offsets end at %d, but the list holds %d parents", off[n], len(list))
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("dag: parent offsets decrease at node %d (%d after %d)", v, off[v+1], off[v])
		}
	}
	// Children are counted two slots ahead of their node, as in FromEdges,
	// so the prefix sum leaves the start of u's list in slot u+1, where
	// FillChildren wants it.
	out := adjacency{offsets.Get(n + 2), ids.Get(len(list))}
	clear(out.off)
	for v := 0; v < n; v++ {
		for _, u := range list[off[v]:off[v+1]] {
			if uint(u) >= uint(v) {
				out.release()
				return nil, parentError(u, NodeID(v))
			}
			out.off[int(u)+2]++
		}
	}
	for i := 2; i < n+2; i++ {
		out.off[i] += out.off[i-1]
	}
	out.off = out.off[:n+1]
	FillChildren(out.off, out.list, off, list)
	// Each children list is filled in ascending child order, so it is
	// strictly ascending unless a parent list repeats its parent.
	if !out.ascending() {
		if u, v := out.repeat(); u >= 0 {
			out.release()
			return nil, fmt.Errorf("dag: duplicate edge (%d,%d)", u, v)
		}
	}
	return &DAG{out: out, in: adjacency{off, list}, depth: -1}, nil
}

// FillChildren writes the children lists of the forward graph whose parent
// lists are parOff and parents into list, each in ascending child order. On
// entry off[0] is 0 and off[u+1] holds the start of u's list; each slot
// advances past the children written, so off ends as the children's n+1
// offsets. The parent lists are not checked: a parent must be below its
// child, and off must give every node the room its children take.
func FillChildren(off []int32, list []NodeID, parOff []int32, parents []NodeID) {
	for v := 0; v+1 < len(parOff); v++ {
		for _, u := range parents[parOff[v]:parOff[v+1]] {
			list[off[int(u)+1]] = NodeID(v)
			off[int(u)+1]++
		}
	}
}

// Layout is a forward graph as the generator that built it lays it out:
// nodes 0..n-1, every edge from a lower ID to a higher one, each side in
// compressed-sparse-row form over n+1 offsets, and the longest path's
// length.
type Layout struct {
	ParentOff []int32 // the parents of v are Parents[ParentOff[v]:ParentOff[v+1]]
	Parents   []NodeID
	ChildOff  []int32 // the children of u are Children[ChildOff[u]:ChildOff[u+1]], ascending
	Children  []NodeID
	Depth     int // the length in edges of the longest path
	// BorrowParents leaves the parents side its caller's: the DAG reads it
	// and Release leaves it alone, so the caller must not modify it while
	// the DAG is in use.
	BorrowParents bool
}

// Laid returns the forward DAG l lays out, with l.Depth as its Depth. It
// keeps l's arrays, checking none of them: a layout is its generator's
// statement of the graph, held in tests to the DAG FromParents freezes from
// the same parent lists. Release recycles every array but a borrowed
// parents side.
func Laid(l Layout) *DAG {
	return &DAG{
		out:      adjacency{l.ChildOff, l.Children},
		in:       adjacency{l.ParentOff, l.Parents},
		depth:    int32(l.Depth),
		borrowed: l.BorrowParents,
	}
}

// parentError says why u cannot be a parent of v in a forward graph.
func parentError(u, v NodeID) error {
	switch {
	case u == v:
		return fmt.Errorf("dag: self-loop on node %d: %w", u, ErrCycle)
	case u < 0:
		return fmt.Errorf("dag: edge (%d,%d) out of range: parent below 0", u, v)
	}
	return fmt.Errorf("dag: edge (%d,%d) does not run upward: a parent must be below its child", u, v)
}

// DAG is an immutable directed acyclic graph, made by FromEdges,
// FromParents or Laid.
type DAG struct {
	out, in  adjacency // children and parents; one list entry per edge in each
	topo     []NodeID  // Kahn's order; nil for a forward graph
	depth    int32     // the longest path's length in edges, or -1 if not stated
	borrowed bool      // in belongs to Laid's caller, not to the DAG
}

// Release returns d's arrays to the free lists, all but a borrowed parents
// side. Neither d nor any slice its methods returned may be used afterwards;
// a second Release does nothing.
func (d *DAG) Release() {
	d.out.release()
	if !d.borrowed {
		d.in.release()
	}
	ids.Put(d.topo)
	*d = DAG{}
}

// NumNodes returns the number of nodes: one fewer than the parents'
// offsets, or none for a released DAG, which has no offsets.
func (d *DAG) NumNodes() int { return max(len(d.in.off)-1, 0) }

// NumEdges returns the number of distinct edges.
func (d *DAG) NumEdges() int { return len(d.out.list) }

// Children returns the out-neighbors of id. The returned slice is shared and
// must not be modified; its capacity ends with the list, so an append copies.
func (d *DAG) Children(id NodeID) []NodeID { return d.out.of(id) }

// Parents returns the in-neighbors of id, on the same terms as Children.
func (d *DAG) Parents(id NodeID) []NodeID { return d.in.of(id) }

// Expand returns id's children and never an error: a built DAG is the
// dynamic graph that discovers nothing (sched.DynamicGraph).
func (d *DAG) Expand(id NodeID) ([]NodeID, error) { return d.out.of(id), nil }

// InDegree returns the number of edges entering id.
func (d *DAG) InDegree(id NodeID) int { return len(d.in.of(id)) }

// OutDegree returns the number of edges leaving id.
func (d *DAG) OutDegree(id NodeID) int { return len(d.out.of(id)) }

// Forward reports whether every edge runs from a lower ID to a higher one,
// so that ascending IDs are a topological order. A forward graph keeps no
// order array, and a sweep over it iterates 0..n-1.
func (d *DAG) Forward() bool { return d.topo == nil }

// TopoOrder returns a topological order of all nodes: 0..n-1 for a forward
// graph, otherwise Kahn's order, sources first in ascending ID. A forward
// graph keeps no order, so each call makes a new one, taking nothing from
// the free lists; a non-forward graph's is shared and must not be modified.
func (d *DAG) TopoOrder() []NodeID {
	if d.topo != nil {
		return d.topo
	}
	order := make([]NodeID, d.NumNodes())
	for v := range order {
		order[v] = NodeID(v)
	}
	return order
}

// Sources returns all nodes with in-degree zero, in ascending ID order.
func (d *DAG) Sources() []NodeID { return d.in.isolated() }

// Sinks returns all nodes with out-degree zero, in ascending ID order.
func (d *DAG) Sinks() []NodeID { return d.out.isolated() }

// Depth returns the length in edges of the longest path in the DAG
// (the critical-path length, i.e. the span of the task graph): the layout's
// own figure for a Laid graph, otherwise one pass in topological order
// (ascending IDs for a forward graph), in which each node's depth is
// written once, from its parents', so the scratch array needs no clearing.
func (d *DAG) Depth() int {
	if d.depth >= 0 {
		return int(d.depth)
	}
	depth := offsets.Get(d.NumNodes())
	longest := int32(0)
	for i := range depth {
		v := NodeID(i)
		if d.topo != nil {
			v = d.topo[i]
		}
		dv := int32(0)
		for _, u := range d.Parents(v) {
			dv = max(dv, depth[u]+1)
		}
		depth[v] = dv
		longest = max(longest, dv)
	}
	offsets.Put(depth)
	return int(longest)
}
