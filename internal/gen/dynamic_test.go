package gen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

func TestChainDAGShape(t *testing.T) {
	d, err := ChainDAG(5)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 5 || d.NumEdges() != 4 {
		t.Fatalf("NumNodes/NumEdges = %d/%d, want 5/4", d.NumNodes(), d.NumEdges())
	}
	if d.Depth() != 4 {
		t.Errorf("Depth = %d, want 4", d.Depth())
	}
	if got := len(d.Sources()); got != 1 {
		t.Errorf("len(Sources) = %d, want 1", got)
	}
	if got := len(d.Sinks()); got != 1 {
		t.Errorf("len(Sinks) = %d, want 1", got)
	}
	for v := 0; v < 4; v++ {
		c := d.Children(dag.NodeID(v))
		if len(c) != 1 || c[0] != dag.NodeID(v+1) {
			t.Fatalf("Children(%d) = %v, want [%d]", v, c, v+1)
		}
	}
	// A single node is a legal (edgeless) chain.
	if d, err := ChainDAG(1); err != nil || d.NumNodes() != 1 || d.Depth() != 0 {
		t.Errorf("ChainDAG(1) = %v, %v; want a 1-node depth-0 dag", d, err)
	}
	if _, err := ChainDAG(0); err == nil {
		t.Error("ChainDAG(0) succeeded, want error")
	}
}

// TestChainDAGDeep pins that chain construction stays linear and shallow in
// memory at the spans the paper exercises (~1e6 nodes).
func TestChainDAGDeep(t *testing.T) {
	const n = 1 << 20
	d, err := ChainDAG(n)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != n || d.NumEdges() != n-1 {
		t.Fatalf("NumNodes/NumEdges = %d/%d, want %d/%d", d.NumNodes(), d.NumEdges(), n, n-1)
	}
	if d.Depth() != n-1 {
		t.Errorf("Depth = %d, want %d", d.Depth(), n-1)
	}
}

func TestNewDynamicValidation(t *testing.T) {
	base := Config{Shape: Dynamic, Stages: 4, Width: 2, EdgeProb: 0.3, Seed: 1}
	if _, err := NewDynamic(base, DynLimits{}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Shape: Random, Nodes: 10, EdgeProb: 0.1},
		{Shape: Dynamic, Stages: 0, Width: 2},
		{Shape: Dynamic, Stages: 4, Width: 0},
		{Shape: Dynamic, Stages: 4, Width: 2, EdgeProb: -0.1},
		{Shape: Dynamic, Stages: 4, Width: 2, EdgeProb: 1.1},
		{Shape: Dynamic, Stages: 4, Width: 2, EdgeProb: math.NaN()},
		{Shape: Dynamic, Stages: 4, Width: 2, EdgeProb: math.Inf(1)},
		{Shape: Dynamic, Stages: 4, Width: 2, EdgeProb: math.Inf(-1)},
	}
	for _, cfg := range bad {
		if _, err := NewDynamic(cfg, DynLimits{}); err == nil {
			t.Errorf("NewDynamic(%+v) succeeded, want error", cfg)
		}
	}
	// Generate must refuse the dynamic shape: it has no static graph.
	if _, err := Generate(base); err == nil {
		t.Error("Generate with dynamic shape succeeded, want error")
	}
}

// expandAll walks the expander to exhaustion in the given visit order
// (mimicking an arbitrary parallel execution order) and returns the visit
// count. order permutes each discovery frontier before expanding it.
func expandAll(t *testing.T, d *Dyn, order func([]dag.NodeID)) int {
	t.Helper()
	seen, err := walk(d, order)
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

// walk is expandAll for any goroutine: it returns the first Expand error
// instead of failing the test.
func walk(d *Dyn, order func([]dag.NodeID)) (int, error) {
	frontier := []dag.NodeID{0}
	seen := 1
	for len(frontier) > 0 {
		order(frontier)
		var next []dag.NodeID
		visited := make(map[dag.NodeID]bool)
		for _, u := range frontier {
			children, err := d.Expand(u)
			if err != nil {
				return seen, fmt.Errorf("Expand(%d): %w", u, err)
			}
			for _, c := range children {
				if !visited[c] {
					visited[c] = true
					next = append(next, c)
					seen++
				}
			}
		}
		frontier = next
	}
	return seen, nil
}

// TestDynamicDeterministicAcrossOrders pins the core property run.Execute
// relies on: the final graph is a pure function of the Config no matter
// which order workers trigger expansions in.
func TestDynamicDeterministicAcrossOrders(t *testing.T) {
	cfg := Config{Shape: Dynamic, Stages: 6, Width: 3, EdgeProb: 0.4, Seed: 99}
	shapes := make([]*dag.DAG, 3)
	orders := []func([]dag.NodeID){
		func([]dag.NodeID) {}, // discovery order
		func(f []dag.NodeID) { // reversed
			for i, j := 0, len(f)-1; i < j; i, j = i+1, j-1 {
				f[i], f[j] = f[j], f[i]
			}
		},
		func(f []dag.NodeID) { // shuffled
			rand.New(rand.NewSource(7)).Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
		},
	}
	for i, order := range orders {
		d, err := NewDynamic(cfg, DynLimits{})
		if err != nil {
			t.Fatal(err)
		}
		expandAll(t, d, order)
		fin, err := d.FinalDAG()
		if err != nil {
			t.Fatalf("order %d: FinalDAG: %v", i, err)
		}
		shapes[i] = fin
	}
	for i := 1; i < len(shapes); i++ {
		if shapes[i].NumNodes() != shapes[0].NumNodes() || shapes[i].NumEdges() != shapes[0].NumEdges() {
			t.Fatalf("order %d: %d nodes/%d edges, order 0: %d/%d", i,
				shapes[i].NumNodes(), shapes[i].NumEdges(), shapes[0].NumNodes(), shapes[0].NumEdges())
		}
		if !sameChildren(shapes[0], shapes[i]) {
			t.Fatalf("order %d produced a different graph than discovery order", i)
		}
	}
}

// TestDynamicFinalDAGParentOrder pins that the frozen graph's Parents(v)
// matches the expander's element for element: order-sensitive workloads
// (hashchain) fold parent values in radj order, so a mismatch would make
// serial verification fail on correct executions.
func TestDynamicFinalDAGParentOrder(t *testing.T) {
	cfg := Config{Shape: Dynamic, Stages: 5, Width: 4, EdgeProb: 0.5, Seed: 3}
	d, err := NewDynamic(cfg, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	expandAll(t, d, func([]dag.NodeID) {})
	fin, err := d.FinalDAG()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < fin.NumNodes(); v++ {
		want := d.Parents(dag.NodeID(v))
		got := fin.Parents(dag.NodeID(v))
		if len(got) != len(want) {
			t.Fatalf("node %d: parent counts differ: frozen %d vs expander %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d parent %d: frozen %d vs expander %d", v, i, got[i], want[i])
			}
		}
	}
}

// TestDynamicFinalDAGSnapshot pins that a DAG frozen mid-expansion stays
// the graph it was frozen as while later levels are built: FinalDAG shares
// the published parent arrays, which later levels only extend.
func TestDynamicFinalDAGSnapshot(t *testing.T) {
	d, err := NewDynamic(Config{Shape: Dynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 1}, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// Expanding in ID order builds a level at the first node of the newest.
	for u, levels := 0, 0; levels < 4; u++ {
		before := d.NumNodes()
		if _, err := d.Expand(dag.NodeID(u)); err != nil {
			t.Fatal(err)
		}
		if d.NumNodes() > before {
			levels++
		}
	}
	snap, err := d.FinalDAG()
	if err != nil {
		t.Fatal(err)
	}
	n, digest := snap.NumNodes(), graphDigest(snap)
	expandAll(t, d, func([]dag.NodeID) {})
	if d.NumNodes() <= n {
		t.Fatalf("expanding every level grew the graph from %d to %d nodes", n, d.NumNodes())
	}
	if got := graphDigest(snap); got != digest || snap.NumNodes() != n {
		t.Errorf("snapshot of %d nodes changed while later levels were built: digest %#016x, then %#016x", n, digest, got)
	}
	checkTopoOrder(t, "snapshot", snap)
}

// TestDynamicGrowthBound pins the runtime enforcement of the node cap: an
// expansion that would exceed it fails with ErrGrowthBound and the error is
// sticky so the whole run winds down.
func TestDynamicGrowthBound(t *testing.T) {
	cfg := Config{Shape: Dynamic, Stages: 30, Width: 4, EdgeProb: 0, Seed: 5}
	d, err := NewDynamic(cfg, DynLimits{MaxNodes: 200})
	if err != nil {
		t.Fatal(err)
	}
	frontier := []dag.NodeID{0}
	var boundErr error
	for len(frontier) > 0 && boundErr == nil {
		var next []dag.NodeID
		for _, u := range frontier {
			children, err := d.Expand(u)
			if err != nil {
				boundErr = err
				break
			}
			next = append(next, children...)
		}
		frontier = next
	}
	if !errors.Is(boundErr, ErrGrowthBound) {
		t.Fatalf("expansion error = %v, want ErrGrowthBound", boundErr)
	}
	if d.NumNodes() > 200 {
		t.Errorf("NumNodes = %d after bound hit, want <= 200", d.NumNodes())
	}
	// Sticky: the root re-expanded reports the same failure.
	if _, err := d.Expand(0); !errors.Is(err, ErrGrowthBound) {
		t.Errorf("Expand after bound = %v, want sticky ErrGrowthBound", err)
	}

	// Edge cap enforcement, separately.
	de, err := NewDynamic(Config{Shape: Dynamic, Stages: 30, Width: 4, EdgeProb: 0.9, Seed: 5}, DynLimits{MaxEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	frontier = []dag.NodeID{0}
	boundErr = nil
	for len(frontier) > 0 && boundErr == nil {
		var next []dag.NodeID
		for _, u := range frontier {
			children, err := de.Expand(u)
			if err != nil {
				boundErr = err
				break
			}
			next = append(next, children...)
		}
		frontier = next
	}
	if !errors.Is(boundErr, ErrGrowthBound) {
		t.Fatalf("edge-cap expansion error = %v, want ErrGrowthBound", boundErr)
	}
}

// TestDynamicLeafAndUnknown pins Expand's edge cases: leaves return no
// successors and undiscovered IDs are an error, not a silent expansion.
func TestDynamicLeafAndUnknown(t *testing.T) {
	d, err := NewDynamic(Config{Shape: Dynamic, Stages: 1, Width: 2, Seed: 8}, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	children, err := d.Expand(0)
	if err != nil || len(children) == 0 {
		t.Fatalf("Expand(0) = %v, %v; want children", children, err)
	}
	for _, c := range children {
		got, err := d.Expand(c)
		if err != nil || got != nil {
			t.Errorf("Expand(leaf %d) = %v, %v; want nil, nil", c, got, err)
		}
	}
	if _, err := d.Expand(dag.NodeID(d.NumNodes() + 5)); err == nil {
		t.Error("Expand of undiscovered node succeeded, want error")
	}
	if _, err := d.Expand(-1); err == nil {
		t.Error("Expand(-1) succeeded, want error")
	}
}

// TestDynamicConcurrentReaders races expanders, each walking the graph in
// its own shuffled order, against readers of Parents and NumNodes, none of
// which take the expander's lock. Readers must only ever see whole levels —
// every discovered node with its primary parent on the level before — and
// the final graph must be the one a serial expansion discovers. Run it under
// -race: a published level is read while the next one is being built.
func TestDynamicConcurrentReaders(t *testing.T) {
	cfg := Config{Shape: Dynamic, Stages: 10, Width: 3, EdgeProb: 0.3, Seed: 11}
	serial, err := NewDynamic(cfg, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	expandAll(t, serial, func([]dag.NodeID) {})
	want, err := serial.FinalDAG()
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewDynamic(cfg, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	const expanders, readers = 4, 4
	errs := make(chan error, expanders+readers)
	done := make(chan struct{})
	var expanding, reading sync.WaitGroup
	for i := 0; i < expanders; i++ {
		expanding.Add(1)
		go func(seed int64) {
			defer expanding.Done()
			rng := rand.New(rand.NewSource(seed))
			_, err := walk(d, func(f []dag.NodeID) {
				rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
			})
			errs <- err
		}(int64(i))
	}
	for i := 0; i < readers; i++ {
		reading.Add(1)
		go func(seed int64) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(seed))
			last := 0
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				n := d.NumNodes()
				if n < last {
					errs <- fmt.Errorf("NumNodes went from %d to %d", last, n)
					return
				}
				last = n
				v := dag.NodeID(rng.Intn(n))
				ps := d.Parents(v)
				if v > 0 && (len(ps) == 0 || ps[0] >= v) {
					errs <- fmt.Errorf("node %d of %d: parents %v", v, n, ps)
					return
				}
			}
		}(int64(100 + i))
	}
	expanding.Wait()
	close(done)
	reading.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.FinalDAG()
	if err != nil {
		t.Fatal(err)
	}
	if graphDigest(got) != graphDigest(want) {
		t.Fatalf("concurrent expansion: %d nodes/%d edges, digest differs from the serial expansion's (%d/%d)",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
}

// TestDynamicDeepNarrow pins that discovering a level costs the same however
// many levels came before: a width-1 spec is one node per level, so each
// Expand publishes one level, and what that publish writes into the
// expander's arrays — the level's elements, plus every element copied when
// an array outgrows its capacity — is counted. One publish may copy all the
// levels before it when an array moves; amortized over the levels, the
// count per level must be the same constant at 50k stages and at 200k. A
// publish that copied every earlier level would make it grow with the
// depth. The wall-clock form of this check is BenchmarkDynamicDeepNarrow.
func TestDynamicDeepNarrow(t *testing.T) {
	for _, stages := range []int{50_000, 200_000} {
		d := narrow(t, stages)
		cost, total := publishCost(d), 0
		expandNarrow(t, d, func() { total += cost() })
		if perLevel := float64(total) / float64(stages); perLevel > 32 {
			t.Errorf("%d stages: publishing wrote %d elements, %.1f per level; want at most 32 whatever the depth",
				stages, total, perLevel)
		}
	}
}

// TestDynamicGrowthBoundPublishesNothing pins that a level whose build fails
// is never seen: NumNodes, NumEdges and FinalDAG stay at the last whole
// level, under either cap.
func TestDynamicGrowthBoundPublishesNothing(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		limits DynLimits
	}{
		{Config{Shape: Dynamic, Stages: 30, Width: 4, Seed: 5}, DynLimits{MaxNodes: 200}},
		{Config{Shape: Dynamic, Stages: 30, Width: 4, EdgeProb: 0.9, Seed: 5}, DynLimits{MaxEdges: 100}},
	} {
		d, err := NewDynamic(tc.cfg, tc.limits)
		if err != nil {
			t.Fatal(err)
		}
		var nodes, edges int
		var boundErr error
		for u := dag.NodeID(0); boundErr == nil; u++ {
			if int(u) >= d.NumNodes() {
				t.Fatalf("%+v: expanded every node without reaching the bound", tc.limits)
			}
			nodes, edges = d.NumNodes(), d.NumEdges()
			_, boundErr = d.Expand(u)
		}
		if !errors.Is(boundErr, ErrGrowthBound) {
			t.Fatalf("%+v: Expand = %v, want ErrGrowthBound", tc.limits, boundErr)
		}
		if d.NumNodes() != nodes || d.NumEdges() != edges {
			t.Errorf("%+v: after the failed build NumNodes/NumEdges = %d/%d, want the last level's %d/%d",
				tc.limits, d.NumNodes(), d.NumEdges(), nodes, edges)
		}
		fin, err := d.FinalDAG()
		if err != nil {
			t.Fatal(err)
		}
		if fin.NumNodes() != nodes || fin.NumEdges() != edges {
			t.Errorf("%+v: FinalDAG has %d/%d, want %d/%d", tc.limits, fin.NumNodes(), fin.NumEdges(), nodes, edges)
		}
	}
}

// TestDynamicReleaseRecycles pins that Release hands every array an
// expander grew back exactly once. It releases an expander whose last build
// failed at the edge cap after moving its parent arrays, then, twice each,
// whole expanders of two seeds that grow slowly enough for states to share
// arrays. An expander of each seed then lives on the released arrays at
// once, so an array handed out twice would be written by both, and each
// must draw the graph, parents and children, that a fresh one drew. Built
// with the poison tag, the recycled arrays start all ones.
func TestDynamicReleaseRecycles(t *testing.T) {
	expand := func(cfg Config, limits DynLimits) (*Dyn, error) {
		d, err := NewDynamic(cfg, limits)
		if err != nil {
			t.Fatal(err)
		}
		_, err = walk(d, func([]dag.NodeID) {})
		return d, err
	}

	fast := Config{Shape: Dynamic, Stages: 9, Width: 3, EdgeProb: 0.3, Seed: 7}
	whole, err := expand(fast, DynLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// The cap admits the last level's primary parents and one cross-parent,
	// so its build fails among the cross-parents, after it grew its arrays.
	g := whole.graph.Load()
	limits := DynLimits{MaxEdges: int(g.parOff[g.last]) + g.numNodes() - g.last + 1}
	whole.Release()
	failed, err := expand(fast, limits)
	if !errors.Is(err, ErrGrowthBound) {
		t.Fatalf("walk under %+v = %v, want ErrGrowthBound", limits, err)
	}
	if c := cap(failed.graph.Load().parents); c >= limits.MaxEdges {
		t.Fatalf("the failed build's parents fit the published array (cap %d), so it moved nothing", c)
	}
	failed.Release()

	// A node's parents, then its children.
	graphOf := func(d *Dyn) [][2][]dag.NodeID {
		out := make([][2][]dag.NodeID, d.NumNodes())
		for v := range out {
			kids, err := d.Expand(dag.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			out[v] = [2][]dag.NodeID{append([]dag.NodeID(nil), d.Parents(dag.NodeID(v))...), append([]dag.NodeID(nil), kids...)}
		}
		return out
	}
	slow := [2]Config{
		{Shape: Dynamic, Stages: 12, Width: 2, EdgeProb: 0.3, Seed: 7},
		{Shape: Dynamic, Stages: 12, Width: 2, EdgeProb: 0.3, Seed: 8},
	}
	var want [2][][2][]dag.NodeID
	for i, cfg := range slow {
		d, err := expand(cfg, DynLimits{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = graphOf(d)
		d.Release()
		d.Release()
	}

	var twins [2]*Dyn
	for i, cfg := range slow {
		if twins[i], err = expand(cfg, DynLimits{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range twins {
		if got := graphOf(d); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%+v on released arrays drew a different graph (%d nodes, want %d)", slow[i], len(got), len(want[i]))
		}
		d.Release()
	}
}
