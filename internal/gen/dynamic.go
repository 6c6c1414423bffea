package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// ErrGrowthBound is returned (wrapped) by Dyn.Expand when materializing the
// next level would push the discovered graph past its node or edge limits.
// Dynamic specs deliberately do not bound their final size at admission —
// the graph does not exist yet — so this runtime check is the enforcement
// point for MaxNodes/MaxEdges on the dynamic shape.
var ErrGrowthBound = errors.New("gen: dynamic dag exceeded growth bound")

// DynLimits caps how large a dynamic graph may grow while it executes.
// Zero means unlimited for that dimension.
type DynLimits struct {
	MaxNodes int
	MaxEdges int
}

// Dyn is the runtime expander behind the Dynamic shape: a DAG whose nodes
// are discovered while it executes, mirroring Nabbit's dynamic mode where a
// node's successors are only known once the node runs.
//
// The graph is layered. Level 0 is the single root (node 0). The first time
// any level-ℓ node is expanded, the whole of level ℓ+1 materializes: each
// level-ℓ node spawns between 1 and Width fresh children, and each child then
// gains up to three extra cross-parents drawn from level ℓ with probability
// EdgeProb apiece. Nodes at level Stages are leaves. Because levels
// materialize wholly, in order, from a single seeded PRNG, the final graph
// is a pure function of the Config no matter which worker triggers each
// expansion or in what order — which is what lets run.Execute verify the
// parallel result against a serial sweep of the final graph.
//
// A level's node IDs are one contiguous range, and building it appends, in
// compressed-sparse-row form, its nodes' parents and the previous level's
// children to arrays that only grow. A level is published by storing a new
// dynGraph whose slices cover it; what a published dynGraph covers is never
// written again, so Expand, Parents, NumNodes and NumEdges read without a
// lock. Only building a level takes the mutex.
type Dyn struct {
	stages int
	width  int
	p      float64
	limits DynLimits

	graph atomic.Pointer[dynGraph] // every level published so far

	mu  sync.Mutex // held while a level is built
	rng *rand.Rand // guarded by mu
}

// rngs recycles the expanders' generators: at about 5 KB a source is the
// largest thing a warm dynamic run would otherwise allocate.
var rngs sync.Pool

// newRand returns a generator seeded with seed, recycled if one is free.
// Seeding resets the whole state, so it draws what a new one would.
func newRand(seed int64) *rand.Rand {
	if r, ok := rngs.Get().(*rand.Rand); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// Release returns every array the expander grew to the free lists: the
// newest state's and those the states before it left behind when a level
// moved an array to a larger one. Neither the expander nor a DAG FinalDAG
// made of it may be used afterwards; a second Release does nothing. An
// expander that is never released leaves its arrays to the garbage
// collector.
func (d *Dyn) Release() {
	d.mu.Lock()
	if d.rng != nil {
		rngs.Put(d.rng)
		d.rng = nil
	}
	d.mu.Unlock()
	// States that hold the same array are consecutive, and the oldest of
	// them returns it. A move always raises the capacity.
	for g := d.graph.Swap(nil); g != nil; g = g.prev {
		p := g.prev
		if p == nil || cap(p.parOff) != cap(g.parOff) {
			dag.ReleaseArrays(g.parOff, nil)
		}
		if p == nil || cap(p.parents) != cap(g.parents) {
			dag.ReleaseArrays(nil, g.parents)
		}
		if p == nil || cap(p.kidOff) != cap(g.kidOff) {
			dag.ReleaseArrays(g.kidOff, nil)
		}
		if p == nil || cap(p.kids) != cap(g.kids) {
			dag.ReleaseArrays(nil, g.kids)
		}
	}
}

// dynGraph is one published state of a Dyn: immutable once stored. The
// parents of node v are parents[parOff[v]:parOff[v+1]], primary parent
// first; a node below last has its children in kids[kidOff[u]:kidOff[u+1]],
// primary children first, then cross-children in draw order. Nodes from last
// on form the newest level, depth, whose children do not exist yet.
type dynGraph struct {
	parOff  []int32
	parents []dag.NodeID
	kidOff  []int32
	kids    []dag.NodeID
	last    int
	depth   int
	err     error     // sticky growth-bound error
	prev    *dynGraph // the state this one grew from, for Release
}

func (g *dynGraph) numNodes() int { return len(g.parOff) - 1 }

func (g *dynGraph) parentsOf(v dag.NodeID) []dag.NodeID {
	lo, hi := g.parOff[v], g.parOff[v+1]
	return g.parents[lo:hi:hi]
}

func (g *dynGraph) childrenOf(u dag.NodeID) []dag.NodeID {
	lo, hi := g.kidOff[u], g.kidOff[u+1]
	return g.kids[lo:hi:hi]
}

// NewDynamic creates the expander for a dynamic Config. Stages is the
// number of expansion levels below the root (the final span in edges),
// Width the maximum children any node spawns, EdgeProb the per-draw chance
// of a cross-parent edge, and Seed fixes the whole expansion.
func NewDynamic(cfg Config, limits DynLimits) (*Dyn, error) {
	if cfg.Shape != Dynamic {
		return nil, fmt.Errorf("gen: NewDynamic called with shape %v", cfg.Shape)
	}
	if err := CheckVersion(cfg.GenVersion); err != nil {
		return nil, err
	}
	if cfg.Stages < 1 {
		return nil, fmt.Errorf("gen: dynamic dag needs stages >= 1, got %d", cfg.Stages)
	}
	if cfg.Width < 1 {
		return nil, fmt.Errorf("gen: dynamic dag needs width >= 1, got %d", cfg.Width)
	}
	if !(cfg.EdgeProb >= 0 && cfg.EdgeProb <= 1) { // NaN fails it too
		return nil, fmt.Errorf("gen: edge probability %v outside [0,1]", cfg.EdgeProb)
	}
	d := &Dyn{
		stages: cfg.Stages,
		width:  cfg.Width,
		p:      cfg.EdgeProb,
		limits: limits,
		rng:    newRand(cfg.Seed),
	}
	parOff, kidOff := dag.Offsets(2), dag.Offsets(1)
	parOff[0], parOff[1], kidOff[0] = 0, 0, 0
	d.graph.Store(&dynGraph{parOff: parOff, kidOff: kidOff})
	return d, nil
}

// Expand reports the successors of u, materializing u's child level on
// first use. It returns an error wrapping ErrGrowthBound if growing the
// graph would exceed the expander's limits; the error is sticky, so every
// subsequent Expand fails the same way and the run winds down.
func (d *Dyn) Expand(u dag.NodeID) ([]dag.NodeID, error) {
	g := d.graph.Load()
	if g.err == nil && int(u) >= g.last && int(u) < g.numNodes() && g.depth < d.stages {
		g = d.grow(g) // u is on the newest level, whose children do not exist yet
	}
	switch {
	case g.err != nil:
		return nil, g.err
	case u < 0 || int(u) >= g.numNodes():
		return nil, fmt.Errorf("gen: expand of undiscovered node %d", u)
	case int(u) >= g.last:
		return nil, nil // leaf level
	}
	return g.childrenOf(u), nil
}

// grow publishes the level after seen's newest one and returns the state
// that covers it, or, if the build fails, seen with its sticky error. A
// caller that finds another caller already replaced seen gets the state now
// current instead.
func (d *Dyn) grow(seen *dynGraph) *dynGraph {
	d.mu.Lock()
	defer d.mu.Unlock()
	if g := d.graph.Load(); g != seen {
		return g
	}
	next, err := d.growLocked(seen)
	if err != nil {
		failed := *seen
		failed.err = err
		next = &failed
	}
	d.graph.Store(next)
	return next
}

// growLocked builds the level after g's newest one and returns the state
// that covers it, without publishing it. The caller holds d.mu. Levels build
// in order 1, 2, 3, … (a level-ℓ node can only run after level ℓ was
// published), so the shared PRNG is consumed deterministically: first every
// previous-level node's child count, then every new node's cross-parent
// draws. The slices it appends to may share backing arrays with g; it only
// writes past g's lengths, where no reader looks. An array too small for the
// level moves to a larger one from the free lists; the old one stays with g
// until Release.
func (d *Dyn) growLocked(g *dynGraph) (*dynGraph, error) {
	level := g.depth + 1
	first, n := g.last, g.numNodes() // the previous level is [first, n)
	prev := n - first
	parOff, parents, kidOff, kids := g.parOff, g.parents, g.kidOff, g.kids

	// Child counts, checked against the caps node by node.
	counts := dag.Offsets(prev)[:0]
	defer dag.ReleaseArrays(counts, nil)
	nodes, edges := n, len(parents)
	for j := 0; j < prev; j++ {
		c := 1 + d.rng.Intn(d.width)
		for k := 0; k < c; k++ {
			if d.limits.MaxNodes > 0 && nodes+1 > d.limits.MaxNodes {
				return nil, fmt.Errorf("gen: dynamic dag grew to %d nodes at level %d (cap %d): %w",
					nodes+1, level, d.limits.MaxNodes, ErrGrowthBound)
			}
			if err := d.checkEdges(edges + 1); err != nil {
				return nil, err
			}
			nodes++
			edges++
		}
		counts = append(counts, int32(c))
	}

	// The new nodes' parents: the primary, then cross-parents as drawn. The
	// arrays grow once for the level (by the expected cross-parent count;
	// append covers any excess).
	grown := nodes - n
	crosses := 0
	if d.p > 0 && prev > 1 {
		crosses = int(3 * d.p * float64(grown))
	}
	parOff = reserve(parOff, grown, dag.Offsets)
	parents = reserve(parents, grown+crosses, dag.IDs)
	for j, c := range counts {
		for ; c > 0; c-- {
			own := len(parents)
			if len(parents)+4 > cap(parents) { // the primary and up to three cross-parents
				// More cross-parents than expected: the array moves
				// again, and one only this build held goes back now.
				moved := reserve(parents, 4, dag.IDs)
				if cap(parents) != cap(g.parents) {
					dag.ReleaseArrays(nil, parents)
				}
				parents = moved
			}
			parents = append(parents, dag.NodeID(first+j))
			if d.p > 0 && prev > 1 {
				for t := 0; t < 3; t++ {
					if d.rng.Float64() >= d.p {
						continue
					}
					w := dag.NodeID(first + d.rng.Intn(prev))
					if containsNode(parents[own:], w) {
						continue
					}
					if err := d.checkEdges(edges + 1); err != nil {
						// Only this build holds an array it moved.
						if cap(parOff) != cap(g.parOff) {
							dag.ReleaseArrays(parOff, nil)
						}
						if cap(parents) != cap(g.parents) {
							dag.ReleaseArrays(nil, parents)
						}
						return nil, err
					}
					edges++
					parents = append(parents, w)
				}
			}
			parOff = append(parOff, int32(len(parents)))
		}
	}
	next := &dynGraph{parOff: parOff, parents: parents, last: n, depth: level, prev: g}

	// The previous level's children: each node's primaries, then its
	// cross-children in draw order, which is the order of the new nodes and
	// of their parent lists. cursor holds each previous-level node's count
	// of cross-children, then the slot its next one goes in.
	cursor := dag.Offsets(prev)
	defer dag.ReleaseArrays(cursor, nil)
	clear(cursor)
	for v := n; v < nodes; v++ {
		for _, w := range next.parentsOf(dag.NodeID(v))[1:] {
			cursor[int(w)-first]++
		}
	}
	kidOff = reserve(kidOff, prev, dag.Offsets)
	kids = reserve(kids, len(parents)-len(g.parents), dag.IDs)
	child := dag.NodeID(n)
	for j, c := range counts {
		for ; c > 0; c-- {
			kids = append(kids, child)
			child++
		}
		x := cursor[j]
		cursor[j] = int32(len(kids))
		for ; x > 0; x-- {
			kids = append(kids, 0)
		}
		kidOff = append(kidOff, int32(len(kids)))
	}
	for v := n; v < nodes; v++ {
		for _, w := range next.parentsOf(dag.NodeID(v))[1:] {
			j := int(w) - first
			kids[cursor[j]] = dag.NodeID(v)
			cursor[j]++
		}
	}
	next.kidOff, next.kids = kidOff, kids
	return next, nil
}

// reserve returns s with room for n more elements: s itself if it has the
// room, else a copy in an array from get, which returns a free list's
// class-sized array. It never writes s's array, which published states may
// be reading.
func reserve[T any](s []T, n int, get func(int) []T) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := get(len(s) + n)[:len(s)]
	copy(grown, s)
	return grown
}

// checkEdges fails if the graph may not hold m edges.
func (d *Dyn) checkEdges(m int) error {
	if d.limits.MaxEdges > 0 && m > d.limits.MaxEdges {
		return fmt.Errorf("gen: dynamic dag grew to %d edges (cap %d): %w", m, d.limits.MaxEdges, ErrGrowthBound)
	}
	return nil
}

func containsNode(s []dag.NodeID, v dag.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Parents returns the predecessors of a discovered node, primary parent
// first. The slice is shared and never changes.
func (d *Dyn) Parents(v dag.NodeID) []dag.NodeID { return d.graph.Load().parentsOf(v) }

// NumNodes returns how many nodes have been discovered so far: every node
// of a published level, never one of a level whose build failed.
func (d *Dyn) NumNodes() int { return d.graph.Load().numNodes() }

// NumEdges returns how many edges have been discovered so far.
func (d *Dyn) NumEdges() int { return len(d.graph.Load().parents) }

// FinalDAG lays the discovered graph out as an immutable DAG, for the
// serial verification sweep that runs after a dynamic execution finishes.
// The DAG takes the published parent lists as they are, so its Parents(v)
// matches the expander's Parents(v) element for element — a workload that
// folds parent values in order sees identical inputs on both the parallel
// and serial passes. It borrows their arrays: a published range is never
// written again, so levels expanded later do not reach it, and releasing
// the DAG leaves them to the expander. Its children offsets are the
// expander's (the newest level has none), so one fill over the parent lists
// writes every children list in ascending order, and its depth is the
// expander's level count: every edge joins adjacent levels and every level
// is reached. The error is always nil.
func (d *Dyn) FinalDAG() (*dag.DAG, error) {
	g := d.graph.Load()
	n, m := g.numNodes(), len(g.parents)
	// Slot u+1 holds the start of u's children list, as FillChildren takes
	// it; the lists of the newest level, from g.last on, are empty and
	// start at the end, kidOff[g.last] = m.
	off := dag.Offsets(n + 1)
	off[0] = 0
	copy(off[1:], g.kidOff[:g.last+1])
	for i := g.last + 2; i <= n; i++ {
		off[i] = int32(m)
	}
	kids := dag.IDs(m)
	dag.FillChildren(off, kids, g.parOff, g.parents)
	return dag.Laid(dag.Layout{
		ParentOff:     g.parOff[: n+1 : n+1],
		Parents:       g.parents[:m:m],
		ChildOff:      off,
		Children:      kids,
		Depth:         g.depth,
		BorrowParents: true,
	}), nil
}
