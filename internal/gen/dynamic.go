package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

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
// any level-ℓ node is expanded, the whole of level ℓ+1 materializes under
// the expander's mutex: each level-ℓ node spawns between 1 and Width fresh
// children, and each child then gains up to three extra cross-parents drawn
// from level ℓ with probability EdgeProb apiece. Nodes at level Stages are
// leaves. Because levels materialize wholly, in order, from a single seeded
// PRNG, the final graph is a pure function of the Config no matter which
// worker triggers each expansion or in what order — which is what lets
// run.Execute verify the parallel result against a serial sweep of the
// final graph.
type Dyn struct {
	stages int
	width  int
	p      float64

	mu       sync.Mutex
	rng      *rand.Rand
	limits   DynLimits
	levels   [][]dag.NodeID // node IDs per level; levels[0] == {0}
	levelOf  []int          // level of each discovered node
	children [][]dag.NodeID // successors, discovery order
	parents  [][]dag.NodeID // predecessors; primary parent first
	nEdges   int
	err      error // sticky growth-bound error
}

// NewDynamic creates the expander for a dynamic Config. Stages is the
// number of expansion levels below the root (the final span in edges),
// Width the maximum children any node spawns, EdgeProb the per-draw chance
// of a cross-parent edge, and Seed fixes the whole expansion.
func NewDynamic(cfg Config, limits DynLimits) (*Dyn, error) {
	if cfg.Shape != Dynamic {
		return nil, fmt.Errorf("gen: NewDynamic called with shape %v", cfg.Shape)
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
	return &Dyn{
		stages:   cfg.Stages,
		width:    cfg.Width,
		p:        cfg.EdgeProb,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		limits:   limits,
		levels:   [][]dag.NodeID{{0}},
		levelOf:  []int{0},
		children: [][]dag.NodeID{nil},
		parents:  [][]dag.NodeID{nil},
	}, nil
}

// Expand reports the successors of u, materializing u's child level on
// first use. It returns an error wrapping ErrGrowthBound if growing the
// graph would exceed the expander's limits; the error is sticky, so every
// subsequent Expand fails the same way and the run winds down.
func (d *Dyn) Expand(u dag.NodeID) ([]dag.NodeID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	if u < 0 || int(u) >= len(d.levelOf) {
		return nil, fmt.Errorf("gen: expand of undiscovered node %d", u)
	}
	lvl := d.levelOf[u]
	if lvl >= d.stages {
		return nil, nil // leaf level
	}
	if lvl+1 >= len(d.levels) {
		if err := d.materializeLocked(lvl + 1); err != nil {
			d.err = err
			return nil, err
		}
	}
	return d.children[u], nil
}

// materializeLocked builds the whole of the given level. The caller holds
// d.mu and guarantees level == len(d.levels): a level-ℓ node can only run
// after level ℓ materialized, so levels always build in order 1, 2, 3, …
// and the shared PRNG is consumed deterministically.
func (d *Dyn) materializeLocked(level int) error {
	prev := d.levels[level-1]
	var lvl []dag.NodeID
	for _, u := range prev {
		c := 1 + d.rng.Intn(d.width)
		for k := 0; k < c; k++ {
			if d.limits.MaxNodes > 0 && len(d.levelOf)+1 > d.limits.MaxNodes {
				return fmt.Errorf("gen: dynamic dag grew to %d nodes at level %d (cap %d): %w",
					len(d.levelOf)+1, level, d.limits.MaxNodes, ErrGrowthBound)
			}
			id := dag.NodeID(len(d.levelOf))
			d.levelOf = append(d.levelOf, level)
			d.children = append(d.children, nil)
			d.parents = append(d.parents, nil)
			if err := d.addEdgeLocked(u, id); err != nil {
				return err
			}
			lvl = append(lvl, id)
		}
	}
	if d.p > 0 && len(prev) > 1 {
		for _, v := range lvl {
			primary := d.parents[v][0]
			for k := 0; k < 3; k++ {
				if d.rng.Float64() >= d.p {
					continue
				}
				w := prev[d.rng.Intn(len(prev))]
				if w == primary || containsNode(d.parents[v], w) {
					continue
				}
				if err := d.addEdgeLocked(w, v); err != nil {
					return err
				}
			}
		}
	}
	d.levels = append(d.levels, lvl)
	return nil
}

func (d *Dyn) addEdgeLocked(u, v dag.NodeID) error {
	if d.limits.MaxEdges > 0 && d.nEdges+1 > d.limits.MaxEdges {
		return fmt.Errorf("gen: dynamic dag grew to %d edges (cap %d): %w",
			d.nEdges+1, d.limits.MaxEdges, ErrGrowthBound)
	}
	d.children[u] = append(d.children[u], v)
	d.parents[v] = append(d.parents[v], u)
	d.nEdges++
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

// Parents returns the predecessors of a discovered node. A node's parent
// slice never changes once its level materialized (cross-parents only come
// from the previous level), but the outer slice may be reallocated by
// growth, so the lookup takes the expander's mutex.
func (d *Dyn) Parents(v dag.NodeID) []dag.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parents[v]
}

// NumNodes returns how many nodes have been discovered so far.
func (d *Dyn) NumNodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.levelOf)
}

// NumEdges returns how many edges have been discovered so far.
func (d *Dyn) NumEdges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nEdges
}

// FinalDAG freezes the discovered graph into an immutable DAG, for the
// serial verification sweep that runs after a dynamic execution finishes.
// The edge list is emitted in parent order per node, so the frozen graph's
// Parents(v) matches the expander's Parents(v) element for element — a
// workload that folds parent values in order sees identical inputs on both
// the parallel and serial passes.
func (d *Dyn) FinalDAG() (*dag.DAG, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.levelOf)
	edges := make([][2]dag.NodeID, 0, d.nEdges)
	for v := 0; v < n; v++ {
		for _, u := range d.parents[v] {
			edges = append(edges, [2]dag.NodeID{u, dag.NodeID(v)})
		}
	}
	return dag.FromEdges(n, edges)
}
