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
// depends on its node count). Each shape has one generator: GenVersion names
// it, and a version whose generators were replaced is retired, refused like
// any unknown one (see CheckVersion).
//
// An edge list, Explicit's from a client or Random's from its draws, is
// frozen by dag.FromEdges, which checks every edge. Chain and Pipeline lay
// their graphs out by formula, both sides and the depth in one pass, and
// the dynamic expander's final graph takes its children offsets and depth
// from the expander's own counts; both hand dag.Laid what they built,
// unchecked at run time. TestLaidShapes and FuzzLaidShapes are those
// checks: every laid graph must equal dag.FromParents' validating freeze of
// its parent lists.
package gen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/slab"
)

// The free lists of the generators' own scratch: the edge lists a graph is
// frozen from and the random shape's per-node flags, all released once the
// graph is frozen. The graphs' arrays come from dag's.
var (
	edgeLists slab.List[[2]dag.NodeID]
	flags     slab.List[bool]
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
	// GenVersion names the generators a seed is drawn with, and must be
	// CurrentVersion or 0, which means it. The service stamps the number at
	// admission, so a logged spec names the generator it was admitted
	// under; version 1, the per-pair random sampler, is retired.
	GenVersion int `json:"gen_version,omitempty"`
}

// CurrentVersion is the generator version a zero Config.GenVersion means.
const CurrentVersion = 2

// CheckVersion is the one rule for Config.GenVersion, applied by Generate,
// NewDynamic and admission alike: 0 or CurrentVersion. Every version below
// CurrentVersion is retired, its generators deleted, so a spec naming one
// fails rather than being drawn as a different graph.
func CheckVersion(v int) error {
	switch {
	case v == 0 || v == CurrentVersion:
		return nil
	case v > 0 && v < CurrentVersion:
		return fmt.Errorf("gen: gen_version %d is retired (want %d, or 0 for the current one)", v, CurrentVersion)
	default:
		return fmt.Errorf("gen: unknown gen_version %d (want %d, or 0 for the current one)", v, CurrentVersion)
	}
}

// Generate builds the DAG described by cfg. The dynamic shape has no
// up-front graph by design — callers execute it through NewDynamic instead.
func Generate(cfg Config) (*dag.DAG, error) {
	if err := CheckVersion(cfg.GenVersion); err != nil {
		return nil, err
	}
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

// ChainDAG builds the n-node path 0→1→…→n-1, laid out by formula in one
// pass: node v's parent is v-1 and its child v+1, and the depth is n-1.
func ChainDAG(n int) (*dag.DAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: chain needs >= 1 node, got %d", n)
	}
	if err := dag.CheckSize(n, n-1); err != nil {
		return nil, err
	}
	// Edge v-1→v is entry v-1 of both lists: node v's parents start at
	// v-1 (none for node 0), node u's children at u (none for node n-1).
	parOff, parents := dag.Offsets(n+1), dag.IDs(n-1)
	kidOff, kids := dag.Offsets(n+1), dag.IDs(n-1)
	parOff[0], parOff[1] = 0, 0
	kidOff[0], kidOff[n] = 0, int32(n-1)
	for v := 1; v < n; v++ {
		parents[v-1] = dag.NodeID(v - 1)
		kids[v-1] = dag.NodeID(v)
		parOff[v+1] = int32(v)
		kidOff[v] = int32(v)
	}
	return dag.Laid(dag.Layout{ParentOff: parOff, Parents: parents, ChildOff: kidOff, Children: kids, Depth: n - 1}), nil
}

// ExplicitDAG builds the graph a client described literally: n nodes
// identified 0..n-1 and exactly the given edges. Out-of-range endpoints,
// self-loops, duplicate edges and cycles are all rejected, none repaired.
// Endpoints are range-checked while they are still ints: a NodeID keeps only
// the low 32 bits, so 4294967297 would otherwise arrive as node 1.
func ExplicitDAG(n int, edges []Edge) (*dag.DAG, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: explicit dag needs >= 1 node, got %d", n)
	}
	list := edgeLists.Get(len(edges))
	defer edgeLists.Put(list)
	for i, e := range edges {
		if uint(e[0]) >= uint(n) || uint(e[1]) >= uint(n) {
			return nil, fmt.Errorf("gen: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
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
	if err := dag.CheckSize(n, 0); err != nil {
		return nil, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails it too
		return nil, fmt.Errorf("gen: edge probability %v outside [0,1]", p)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), seedStream))
	g := skipSample(n, p, rng)
	defer g.release()
	g.fillIn(rng)
	// The fill-in edges come last yet fix each node's parent order, so the
	// list is frozen as it stands: grouping it by child is FromEdges' fill.
	return dag.FromEdges(n, g.edges)
}

// seedStream is the second PCG state word of RandomDAG's PRNG; the seed is
// the first. PCG seeds in O(1), where math/rand's source fills 607 words.
const seedStream = 0x9e3779b97f4a7c15

// skipSample finds the present forward pairs by geometric skip sampling
// (Batagelj & Brandes, Phys. Rev. E 71, 2005): walking the pairs in
// row-major order, the number of absent pairs before the next present one is
// Geometric(p), drawn as ⌊log U / log(1−p)⌋. That is one draw per edge, not
// one per pair, and the edges still come out in row-major order, so every
// adjacency list is ascending. p = 0 and p = 1 draw nothing.
func skipSample(n int, p float64, rng *rand.Rand) randomEdges {
	g := randomEdges{
		edges:     edgeLists.Get(randomReserve(n, p))[:0],
		hasParent: flags.Get(n),
		hasChild:  flags.Get(n),
	}
	clear(g.hasParent)
	clear(g.hasChild)
	switch {
	case p == 1:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.add(i, j)
			}
		}
	case p > 0:
		logq := math.Log1p(-p)
		// (i, j) is the last pair passed, (0, 0) standing for "before (0, 1)";
		// rem counts the pairs after it.
		i, j, rem := 0, 0, int64(n)*int64(n-1)/2
		for {
			// 1 − Float64() is in (0, 1], so the log is finite. The skip is
			// compared as a float: for a tiny p it can exceed any integer.
			skip := math.Floor(math.Log(1-rng.Float64()) / logq)
			if skip >= float64(rem) {
				break
			}
			k := int64(skip) + 1
			rem -= k
			for k > int64(n-1-j) {
				k -= int64(n - 1 - j)
				i++
				j = i
			}
			j += int(k)
			g.add(i, j)
		}
	}
	return g
}

// randomEdges is a random DAG's edge list under construction, with the
// per-node flags its connectivity fill-in needs.
type randomEdges struct {
	edges               [][2]dag.NodeID
	hasParent, hasChild []bool
}

func (g *randomEdges) add(i, j int) {
	if len(g.edges) == cap(g.edges) {
		g.grow()
	}
	g.edges = append(g.edges, [2]dag.NodeID{dag.NodeID(i), dag.NodeID(j)})
	g.hasParent[j] = true
	g.hasChild[i] = true
}

// grow doubles the edge list's capacity, as append would, but within the
// free list's classes.
func (g *randomEdges) grow() {
	edges := edgeLists.Get(2 * cap(g.edges))[:len(g.edges)]
	copy(edges, g.edges)
	edgeLists.Put(g.edges)
	g.edges = edges
}

// release returns the edge list and the flags to their free lists.
func (g *randomEdges) release() {
	edgeLists.Put(g.edges)
	flags.Put(g.hasParent)
	flags.Put(g.hasChild)
}

// fillIn gives every orphaned interior node a random earlier parent, then
// every childless interior node a random later child. Neither can repeat an
// edge: the node had none on that side.
func (g *randomEdges) fillIn(rng *rand.Rand) {
	n := len(g.hasParent)
	for j := 1; j < n; j++ {
		if !g.hasParent[j] {
			g.add(rng.IntN(j), j)
		}
	}
	for i := n - 2; i >= 0; i-- {
		if !g.hasChild[i] {
			g.add(i, i+1+rng.IntN(n-1-i))
		}
	}
}

// randomReserve is a random DAG's starting edge capacity: the expected
// p·n(n-1)/2 plus the most the fill-in adds, in float64 so that a large n
// cannot wrap it, capped at 1<<20 edges so that a huge spec does not claim
// its memory before the first pair is drawn; past the cap grow's doubling
// costs an amortised copy per edge, less than the freeze already spends.
func randomReserve(n int, p float64) int {
	return int(math.Min(p*float64(n)*float64(n-1)/2+2*float64(n), 1<<20))
}

// PipelineDAG generates a stages×width grid with a dedicated source (node 0)
// and sink (last node). Grid node (s, i) connects to (s+1, j) for every j
// with |i-j| <= 1. The source feeds all of stage 0; all of the last stage
// feeds the sink. The shape is fully determined by its dimensions, so no
// seed is involved: both sides are laid out by formula in one pass over the
// nodes, and the depth is stages+1.
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
	// Grid node (s, i) is ID 1 + s*width + i. Both sides are appended node
	// by node in ID order, each list ascending: within the grid, column i
	// meets columns i-1..i+1 of the stage before and of the stage after.
	id := func(s, i int) dag.NodeID { return dag.NodeID(1 + s*width + i) }
	sink := dag.NodeID(n - 1)
	// An interior column has three parents, the two edge columns two; the
	// arrays are filled by appending within their exact lengths.
	m := 2*width + (stages-1)*(3*width-2)
	parOff, parents := dag.Offsets(n + 1)[:0], dag.IDs(m)[:0]
	kidOff, kids := dag.Offsets(n + 1)[:0], dag.IDs(m)[:0]
	// The source, node 0, has no parent and feeds all of stage 0.
	parOff, kidOff = append(parOff, 0, 0), append(kidOff, 0)
	for i := 0; i < width; i++ {
		kids = append(kids, id(0, i))
	}
	kidOff = append(kidOff, int32(len(kids)))
	for s := 0; s < stages; s++ {
		for j := 0; j < width; j++ {
			lo, hi := max(j-1, 0), min(j+1, width-1)
			if s == 0 {
				parents = append(parents, 0)
			} else {
				for i := lo; i <= hi; i++ {
					parents = append(parents, id(s-1, i))
				}
			}
			if s == stages-1 {
				kids = append(kids, sink) // all of the last stage feeds the sink
			} else {
				for i := lo; i <= hi; i++ {
					kids = append(kids, id(s+1, i))
				}
			}
			parOff = append(parOff, int32(len(parents)))
			kidOff = append(kidOff, int32(len(kids)))
		}
	}
	for i := 0; i < width; i++ {
		parents = append(parents, id(stages-1, i))
	}
	parOff, kidOff = append(parOff, int32(len(parents))), append(kidOff, int32(len(kids)))
	// The longest path runs source, one node per stage, sink.
	return dag.Laid(dag.Layout{ParentOff: parOff, Parents: parents, ChildOff: kidOff, Children: kids, Depth: stages + 1}), nil
}
