// Package gen provides deterministic DAG construction for benchmark and
// service workloads. Five shapes are supported; they mirror the Nabbit
// random-DAG microbenchmark knobs <R, NodeWork, dag_type>:
//
//   - Random: nodes 0..N-1 with each forward edge (i, j), i < j, present
//     independently with probability p. Node 0 is forced to be the unique
//     source and node N-1 the unique sink, so source→sink path counting is
//     always well defined.
//   - Pipeline: a stages×width grid where node (s, i) feeds (s+1, j) for
//     |i-j| <= 1, bracketed by a dedicated source and sink. This produces a
//     deep, narrow task graph with large span — the shape that stresses
//     scheduler depth.
//   - Chain: a single path 0→1→…→N-1, the degenerate width-1 pipeline and
//     the maximum-span shape per node budget. Nabbit's TODO notes that
//     huge-span pipelines break naive (stack-recursive) execution; chain
//     specs near the node cap prove the scheduler's iterative continuation
//     loop handles them.
//   - Explicit: a client-supplied node count and edge list, frozen verbatim.
//     Unlike the generated shapes nothing is invented: self-loops, duplicate
//     edges, out-of-range endpoints, and cycles are all rejected.
//   - Dynamic: a seeded expansion whose nodes are discovered at runtime
//     (Nabbit's dynamic mode): the graph is never built up front — see
//     dynamic.go for the lazy expander the scheduler grows mid-run.
//
// All randomness flows from Config.Seed, so a given Config always produces
// an identical DAG (Explicit involves no randomness at all, Chain only
// depends on its node count).
package gen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// Shape selects which generator a Config drives.
type Shape int

const (
	// Random is a forward-edge Erdős–Rényi style DAG.
	Random Shape = iota
	// Pipeline is a stages×width grid DAG with nearest-neighbor edges.
	Pipeline
	// Explicit is a client-supplied node count plus edge list.
	Explicit
	// Chain is a single path 0→1→…→N-1 (a width-1 pipeline without the
	// bracketing source/sink): the deepest span any node budget allows.
	Chain
	// Dynamic is a seeded runtime expansion; its graph is discovered while
	// it executes rather than generated up front (see Dyn).
	Dynamic
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Random:
		return "random"
	case Pipeline:
		return "pipeline"
	case Explicit:
		return "explicit"
	case Chain:
		return "chain"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// ParseShape converts a wire string ("random", "pipeline", "explicit",
// "chain", "dynamic") to a Shape.
func ParseShape(s string) (Shape, error) {
	switch s {
	case "random":
		return Random, nil
	case "pipeline":
		return Pipeline, nil
	case "explicit":
		return Explicit, nil
	case "chain":
		return Chain, nil
	case "dynamic":
		return Dynamic, nil
	default:
		return 0, fmt.Errorf("gen: unknown dag shape %q (want random, pipeline, chain, dynamic, or explicit)", s)
	}
}

// MarshalText implements encoding.TextMarshaler, so a Shape serializes as
// its name ("random", "pipeline", "explicit", "chain", "dynamic") in JSON
// and other text encodings.
func (s Shape) MarshalText() ([]byte, error) {
	switch s {
	case Random, Pipeline, Explicit, Chain, Dynamic:
		return []byte(s.String()), nil
	default:
		return nil, fmt.Errorf("gen: cannot marshal unknown dag shape %d", int(s))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Shape) UnmarshalText(text []byte) error {
	parsed, err := ParseShape(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// Edge is one directed edge of an Explicit spec, serialized on the wire as
// a two-element JSON array [from, to].
type Edge [2]int

// UnmarshalJSON enforces that an edge is exactly a [from, to] pair. The
// default array decoding would silently zero-fill a one-element list
// (creating a phantom [x, 0] edge) and silently drop extra elements, both
// of which must be admission errors for client-supplied graphs.
func (e *Edge) UnmarshalJSON(b []byte) error {
	var pair []int
	if err := json.Unmarshal(b, &pair); err != nil {
		return fmt.Errorf("gen: edge must be a [from,to] array: %w", err)
	}
	if len(pair) != 2 {
		return fmt.Errorf("gen: edge must have exactly 2 endpoints, got %d", len(pair))
	}
	e[0], e[1] = pair[0], pair[1]
	return nil
}

// Config parameterizes a generator run. The JSON form is the wire format
// used by the dagd run-submission API, so equal JSON documents always
// describe equal DAGs.
type Config struct {
	Shape    Shape   `json:"shape"`
	Nodes    int     `json:"nodes,omitempty"`  // total node count (Random, Chain, Explicit); ignored by Pipeline
	EdgeProb float64 `json:"p,omitempty"`      // forward-edge probability p (Random only)
	Stages   int     `json:"stages,omitempty"` // pipeline depth (Pipeline only)
	Width    int     `json:"width,omitempty"`  // pipeline width (Pipeline only)
	Seed     int64   `json:"seed,omitempty"`   // PRNG seed; equal seeds give equal DAGs
	Edges    []Edge  `json:"edges,omitempty"`  // explicit edge list (Explicit only)
}

// Generate builds the DAG described by cfg. The dynamic shape has no
// up-front graph by design — callers execute it through NewDynamic instead.
func Generate(cfg Config) (*dag.DAG, error) {
	switch cfg.Shape {
	case Random:
		return RandomDAG(cfg.Nodes, cfg.EdgeProb, cfg.Seed)
	case Pipeline:
		return PipelineDAG(cfg.Stages, cfg.Width)
	case Explicit:
		return ExplicitDAG(cfg.Nodes, cfg.Edges)
	case Chain:
		return ChainDAG(cfg.Nodes)
	case Dynamic:
		return nil, fmt.Errorf("gen: dynamic dags are discovered at runtime; execute them via NewDynamic, not Generate")
	default:
		return nil, fmt.Errorf("gen: unknown dag shape %v", cfg.Shape)
	}
}

// ChainDAG builds the n-node path 0→1→…→n-1.
func ChainDAG(n int) (*dag.DAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: chain needs >= 1 node, got %d", n)
	}
	if err := dag.CheckSize(n, n-1); err != nil {
		return nil, err
	}
	edges := make([][2]dag.NodeID, n-1)
	for i := range edges {
		edges[i] = [2]dag.NodeID{dag.NodeID(i), dag.NodeID(i + 1)}
	}
	return dag.FromEdges(n, edges)
}

// ExplicitDAG builds the graph a client described literally: n nodes
// identified 0..n-1 and exactly the given edges. Out-of-range endpoints,
// self-loops, duplicate edges and cycles are all rejected, none repaired.
func ExplicitDAG(n int, edges []Edge) (*dag.DAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: explicit dag needs >= 1 node, got %d", n)
	}
	list := make([][2]dag.NodeID, len(edges))
	for i, e := range edges {
		list[i] = [2]dag.NodeID{dag.NodeID(e[0]), dag.NodeID(e[1])}
	}
	return dag.FromEdges(n, list)
}

// RandomDAG generates a random DAG with n nodes. Every forward pair (i, j)
// with i < j gets an edge with probability p. To keep the source→sink path
// count well defined, every node except 0 is guaranteed at least one parent
// and every node except n-1 at least one child (fill-in edges are drawn from
// the same seeded PRNG, so the result is still fully deterministic).
func RandomDAG(n int, p float64, seed int64) (*dag.DAG, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: random dag needs >= 2 nodes, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: edge probability %v outside [0,1]", p)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]dag.NodeID, 0, randomReserve(n, p))
	hasParent := make([]bool, n)
	hasChild := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]dag.NodeID{dag.NodeID(i), dag.NodeID(j)})
				hasParent[j] = true
				hasChild[i] = true
			}
		}
	}
	// Connectivity fill-in: orphaned interior nodes get a random earlier
	// parent; childless interior nodes get a random later child. Neither can
	// repeat an edge: the node had none on that side.
	for j := 1; j < n; j++ {
		if !hasParent[j] {
			i := rng.Intn(j)
			edges = append(edges, [2]dag.NodeID{dag.NodeID(i), dag.NodeID(j)})
			hasChild[i] = true
		}
	}
	for i := n - 2; i >= 0; i-- {
		if !hasChild[i] {
			j := i + 1 + rng.Intn(n-1-i)
			edges = append(edges, [2]dag.NodeID{dag.NodeID(i), dag.NodeID(j)})
		}
	}
	return dag.FromEdges(n, edges)
}

// randomReserve is RandomDAG's starting edge capacity: the expected p·n(n-1)/2
// plus the most the fill-in adds, in float64 so that a large n cannot wrap it,
// capped where append's doubling becomes noise beside the n²/2 draws.
func randomReserve(n int, p float64) int {
	return int(math.Min(p*float64(n)*float64(n-1)/2+2*float64(n), 1<<20))
}

// PipelineDAG generates a stages×width grid with a dedicated source (node 0)
// and sink (last node). Grid node (s, i) connects to (s+1, j) for every j
// with |i-j| <= 1. The source feeds all of stage 0; all of the last stage
// feeds the sink. The shape is fully determined by its dimensions, so no
// seed is involved.
func PipelineDAG(stages, width int) (*dag.DAG, error) {
	if stages < 1 || width < 1 {
		return nil, fmt.Errorf("gen: pipeline needs stages >= 1 and width >= 1, got %dx%d", stages, width)
	}
	// Division-based guard: stages*width overflows int for adversarial
	// dimensions, and the CLI hands them here with no admission cap between.
	// The grid has under 3·stages·width edges, so a third of what a DAG can
	// index bounds its nodes and its edges.
	if stages > dag.MaxSize/3/width {
		return nil, fmt.Errorf("gen: pipeline %dx%d is too large: 3·stages·width must stay under %d", stages, width, dag.MaxSize)
	}
	n := stages*width + 2
	source, sink := dag.NodeID(0), dag.NodeID(n-1)
	// Grid node (s, i) is ID 1 + s*width + i.
	id := func(s, i int) dag.NodeID { return dag.NodeID(1 + s*width + i) }
	// An interior column feeds three neighbours, the two edge columns two.
	edges := make([][2]dag.NodeID, 0, 2*width+(stages-1)*(3*width-2))
	for i := 0; i < width; i++ {
		edges = append(edges, [2]dag.NodeID{source, id(0, i)}, [2]dag.NodeID{id(stages-1, i), sink})
	}
	for s := 0; s < stages-1; s++ {
		for i := 0; i < width; i++ {
			for j := max(i-1, 0); j <= min(i+1, width-1); j++ {
				edges = append(edges, [2]dag.NodeID{id(s, i), id(s+1, j)})
			}
		}
	}
	return dag.FromEdges(n, edges)
}
