// Package dag provides an immutable directed-acyclic-graph model: nodes,
// edges, adjacency in both directions, cycle detection via Kahn's algorithm,
// and topological ordering.
//
// A DAG is stored compressed-sparse-row: every children list back to back in
// one flat array with an offset per node, and the same for parents. One
// function, freeze, builds that from an edge list in O(n+m): it validates
// each edge, fills both arrays in a stable counting pass (every Children(u)
// and Parents(v) keeps edge-list order), finds repeated edges with a stamp
// array and runs Kahn's algorithm. Builder.Build and FromEdges both call it;
// a repeated edge is dropped by the first and an error to the second.
//
// Once built, a DAG is never mutated; all accessor methods are safe for
// concurrent use.
package dag

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node in a DAG. Nodes are dense integers in [0, N).
type NodeID int

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

// checkEdge reports why (u,v) cannot be an edge of an n-node DAG, if so.
func checkEdge(n int, u, v NodeID) error {
	if uint(u) >= uint(n) || uint(v) >= uint(n) {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("dag: self-loop on node %d: %w", u, ErrCycle)
	}
	return nil
}

// Builder accumulates nodes and edges before freezing them into a DAG.
type Builder struct {
	n     int
	edges [][2]NodeID
}

// NewBuilder returns a Builder for a graph with n nodes, identified 0..n-1.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records a directed edge from u to v. Duplicate edges are ignored:
// Build keeps the first occurrence of each. It returns an error if either
// endpoint is out of range or if u == v (a self-loop is trivially a cycle).
func (b *Builder) AddEdge(u, v NodeID) error {
	if err := checkEdge(b.n, u, v); err != nil {
		return err
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
	return nil
}

// Build freezes the accumulated graph into an immutable DAG, or returns an
// error wrapping ErrCycle if Kahn's algorithm finds a cycle.
func (b *Builder) Build() (*DAG, error) { return freeze(b.n, b.edges, true) }

// FromEdges freezes a graph from a prepared edge list, which it does not
// retain. The list is a generator's or a client's statement of the graph, so
// unlike Builder it rejects a repeated edge as it does any other defect.
func FromEdges(n int, edges [][2]NodeID) (*DAG, error) { return freeze(n, edges, false) }

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

// firstOccurrences cuts every list down to the first occurrence of each
// neighbour and reports one (u, x) it dropped, or u = -1 if nothing repeated.
// stamp holds a zero per node; stamp[x] == u+1 marks x as seen in u's list.
func (a *adjacency) firstOccurrences(stamp []int32) (u, x NodeID) {
	u = -1
	w := int32(0)
	for owner := range stamp {
		lo, hi := a.off[owner], a.off[owner+1]
		a.off[owner] = w
		for _, nb := range a.list[lo:hi] {
			if stamp[nb] == int32(owner)+1 {
				u, x = NodeID(owner), nb
				continue
			}
			stamp[nb] = int32(owner) + 1
			a.list[w] = nb
			w++
		}
	}
	a.off[len(stamp)] = w
	a.list = a.list[:w]
	return u, x
}

func freeze(n int, edges [][2]NodeID, dropDuplicates bool) (*DAG, error) {
	if err := CheckSize(n, len(edges)); err != nil {
		return nil, err
	}
	// Degrees are counted two slots ahead of their node: the prefix sum then
	// leaves the start of u's list in slot u+1, the fill advances it to the
	// end — the start of u+1's — and slots 0..n are the offsets.
	out := adjacency{make([]int32, n+2), make([]NodeID, len(edges))}
	in := adjacency{make([]int32, n+2), make([]NodeID, len(edges))}
	for _, e := range edges {
		if err := checkEdge(n, e[0], e[1]); err != nil {
			return nil, err
		}
		out.off[e[0]+2]++
		in.off[e[1]+2]++
	}
	for i := 2; i < n+2; i++ {
		out.off[i] += out.off[i-1]
		in.off[i] += in.off[i-1]
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		out.list[out.off[u+1]] = v
		out.off[u+1]++
		in.list[in.off[v+1]] = u
		in.off[v+1]++
	}
	out.off, in.off = out.off[:n+1], in.off[:n+1]
	scratch := make([]int32, n)
	if u, v := out.firstOccurrences(scratch); u >= 0 {
		if !dropDuplicates {
			return nil, fmt.Errorf("dag: duplicate edge (%d,%d)", u, v)
		}
		// Both fills were stable, so the first (u,v) among u's children and
		// the first among v's parents are the same edge of the list.
		clear(scratch)
		in.firstOccurrences(scratch)
	}

	// Kahn's algorithm, the order doubling as the work queue: a node joins it
	// when scratch, now its count of unvisited parents, reaches zero.
	topo := make([]NodeID, 0, n)
	for v := range scratch {
		if scratch[v] = in.off[v+1] - in.off[v]; scratch[v] == 0 {
			topo = append(topo, NodeID(v))
		}
	}
	for i := 0; i < len(topo); i++ {
		for _, v := range out.of(topo[i]) {
			if scratch[v]--; scratch[v] == 0 {
				topo = append(topo, v)
			}
		}
	}
	if len(topo) != n {
		return nil, fmt.Errorf("dag: %d of %d nodes unreachable by Kahn's algorithm: %w", n-len(topo), n, ErrCycle)
	}
	return &DAG{out: out, in: in, topo: topo}, nil
}

// DAG is an immutable directed acyclic graph, made by Builder or FromEdges.
type DAG struct {
	out, in adjacency // children and parents; one list entry per edge in each
	topo    []NodeID
}

// NumNodes returns the number of nodes.
func (d *DAG) NumNodes() int { return len(d.topo) }

// NumEdges returns the number of distinct edges.
func (d *DAG) NumEdges() int { return len(d.out.list) }

// Children returns the out-neighbors of id. The returned slice is shared and
// must not be modified; its capacity ends with the list, so an append copies.
func (d *DAG) Children(id NodeID) []NodeID { return d.out.of(id) }

// Parents returns the in-neighbors of id, on the same terms as Children.
func (d *DAG) Parents(id NodeID) []NodeID { return d.in.of(id) }

// InDegree returns the number of edges entering id.
func (d *DAG) InDegree(id NodeID) int { return len(d.in.of(id)) }

// OutDegree returns the number of edges leaving id.
func (d *DAG) OutDegree(id NodeID) int { return len(d.out.of(id)) }

// TopoOrder returns a topological order of all nodes. The returned slice is
// shared and must not be modified.
func (d *DAG) TopoOrder() []NodeID { return d.topo }

// Sources returns all nodes with in-degree zero, in ascending ID order.
func (d *DAG) Sources() []NodeID { return d.in.isolated() }

// Sinks returns all nodes with out-degree zero, in ascending ID order.
func (d *DAG) Sinks() []NodeID { return d.out.isolated() }

// Depth returns the length in edges of the longest path in the DAG
// (the critical-path length, i.e. the span of the task graph).
func (d *DAG) Depth() int {
	depth := make([]int, len(d.topo))
	longest := 0
	for _, u := range d.topo {
		for _, v := range d.Children(u) {
			depth[v] = max(depth[v], depth[u]+1)
			longest = max(longest, depth[v])
		}
	}
	return longest
}
