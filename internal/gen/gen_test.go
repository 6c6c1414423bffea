package gen

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// TestConfigJSONRoundTrip pins the serializable spec form used on the dagd
// wire: shapes marshal by name and equal JSON always means equal DAGs.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Config{Shape: Pipeline, Stages: 12, Width: 3, Seed: 5}
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Config
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, cfg) {
		t.Fatalf("round trip %+v, want %+v", decoded, cfg)
	}
	var fromWire Config
	if err := json.Unmarshal([]byte(`{"shape":"random","nodes":64,"p":0.1,"seed":9}`), &fromWire); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Shape: Random, Nodes: 64, EdgeProb: 0.1, Seed: 9}); !reflect.DeepEqual(fromWire, want) {
		t.Fatalf("wire decode %+v, want %+v", fromWire, want)
	}
	var explicitWire Config
	if err := json.Unmarshal([]byte(`{"shape":"explicit","nodes":3,"edges":[[0,1],[1,2]]}`), &explicitWire); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Shape: Explicit, Nodes: 3, Edges: []Edge{{0, 1}, {1, 2}}}); !reflect.DeepEqual(explicitWire, want) {
		t.Fatalf("explicit wire decode %+v, want %+v", explicitWire, want)
	}
	if err := json.Unmarshal([]byte(`{"shape":"hexagon"}`), &fromWire); err == nil {
		t.Fatal("unknown shape decoded without error")
	}
	if _, err := json.Marshal(Config{Shape: Shape(9)}); err == nil {
		t.Fatal("unknown shape marshalled without error")
	}
}

func TestRandomDAGDeterministic(t *testing.T) {
	a, err := RandomDAG(200, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomDAG(200, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		ca, cb := a.Children(dag.NodeID(v)), b.Children(dag.NodeID(v))
		if len(ca) != len(cb) {
			t.Fatalf("node %d: child counts differ: %d vs %d", v, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("node %d child %d differs: %d vs %d", v, i, ca[i], cb[i])
			}
		}
	}
	c, err := RandomDAG(200, 0.05, 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() == a.NumEdges() && sameChildren(a, c) {
		t.Error("different seeds produced identical DAGs")
	}
}

func sameChildren(a, b *dag.DAG) bool {
	for v := 0; v < a.NumNodes(); v++ {
		ca, cb := a.Children(dag.NodeID(v)), b.Children(dag.NodeID(v))
		if len(ca) != len(cb) {
			return false
		}
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}

func TestRandomDAGConnectivity(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.3} {
		d, err := RandomDAG(100, p, 7)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		// Node 0 is the unique source, node n-1 the unique sink.
		for v := 1; v < d.NumNodes(); v++ {
			if d.InDegree(dag.NodeID(v)) == 0 {
				t.Errorf("p=%v: node %d has no parent", p, v)
			}
		}
		for v := 0; v < d.NumNodes()-1; v++ {
			if d.OutDegree(dag.NodeID(v)) == 0 {
				t.Errorf("p=%v: node %d has no child", p, v)
			}
		}
	}
}

func TestRandomDAGValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{"one node", 1, 0.5},
		{"p<0", 10, -0.1},
		{"p>1", 10, 1.5},
		// NaN fails every ordered comparison, so a `p < 0 || p > 1` check
		// let it through; the skip sampler would read it as "every pair".
		{"p NaN", 10, math.NaN()},
		{"p +Inf", 10, math.Inf(1)},
		{"p -Inf", 10, math.Inf(-1)},
		{"n over dag.MaxSize", dag.MaxSize + 1, 0.5},
	}
	for _, tc := range cases {
		if _, err := RandomDAG(tc.n, tc.p, 1); err == nil {
			t.Errorf("%s: RandomDAG succeeded, want error", tc.name)
		}
	}
}

// TestGenVersionRule pins that both entry points apply CheckVersion: 0 and
// CurrentVersion build, the retired 1 fails naming its retirement, and
// versions nobody defined fail as unknown.
func TestGenVersionRule(t *testing.T) {
	entries := map[string]func(version int) error{
		"Generate": func(version int) error {
			_, err := Generate(Config{Shape: Random, Nodes: 10, EdgeProb: 0.1, GenVersion: version})
			return err
		},
		"NewDynamic": func(version int) error {
			_, err := NewDynamic(Config{Shape: Dynamic, Stages: 3, Width: 2, EdgeProb: 0.1, GenVersion: version}, DynLimits{})
			return err
		},
	}
	for _, tc := range []struct {
		version int
		want    string // substring of the error; "" accepts
	}{
		{-1, "unknown gen_version -1"},
		{0, ""},
		{1, "gen_version 1 is retired"},
		{2, ""},
		{3, "unknown gen_version 3"},
	} {
		for name, entry := range entries {
			err := entry(tc.version)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s with gen_version %d: %v, want success", name, tc.version, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s with gen_version %d: error %v, want one containing %q", name, tc.version, err, tc.want)
			}
		}
	}
}

func TestPipelineDAGShape(t *testing.T) {
	stages, width := 10, 3
	d, err := PipelineDAG(stages, width)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.NumNodes(), stages*width+2; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if got := len(d.Sources()); got != 1 {
		t.Errorf("len(Sources) = %d, want 1", got)
	}
	if got := len(d.Sinks()); got != 1 {
		t.Errorf("len(Sinks) = %d, want 1", got)
	}
	// Depth is source → stage 0 → ... → stage stages-1 → sink.
	if got, want := d.Depth(), stages+1; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
	// Interior grid column feeds 3 neighbors; edge columns feed 2.
	mid := dag.NodeID(1 + 0*width + 1) // stage 0, column 1
	if got := d.OutDegree(mid); got != 3 {
		t.Errorf("OutDegree(stage0,col1) = %d, want 3", got)
	}
}

func TestPipelineDAGValidation(t *testing.T) {
	if _, err := PipelineDAG(0, 3); err == nil {
		t.Error("PipelineDAG(0,3) succeeded, want error")
	}
	if _, err := PipelineDAG(3, 0); err == nil {
		t.Error("PipelineDAG(3,0) succeeded, want error")
	}
	// stages*width+2 wraps negative for these dimensions; without the guard
	// graph construction panicked on callers that bypass admission (the CLI).
	if _, err := PipelineDAG(3037000500, 3037000500); err == nil {
		t.Error("PipelineDAG(3037000500,3037000500) succeeded, want overflow error")
	}
}

func TestGenerateDispatch(t *testing.T) {
	d, err := Generate(Config{Shape: Random, Nodes: 50, EdgeProb: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 50 {
		t.Errorf("random NumNodes = %d, want 50", d.NumNodes())
	}
	d, err = Generate(Config{Shape: Pipeline, Stages: 5, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 12 {
		t.Errorf("pipeline NumNodes = %d, want 12", d.NumNodes())
	}
	if _, err := Generate(Config{Shape: Shape(99)}); err == nil {
		t.Error("Generate with bogus shape succeeded, want error")
	}
}

func TestParseShape(t *testing.T) {
	for s, want := range map[string]Shape{"random": Random, "pipeline": Pipeline, "explicit": Explicit} {
		got, err := ParseShape(s)
		if err != nil || got != want {
			t.Errorf("ParseShape(%q) = %v, %v; want %v, nil", s, got, err, want)
		}
	}
	if _, err := ParseShape("ring"); err == nil {
		t.Error(`ParseShape("ring") succeeded, want error`)
	}
}

// TestEdgeUnmarshalArity pins the strict [from,to] decoding: the default
// array decoding would zero-fill short lists and drop long ones, silently
// changing the client's graph.
func TestEdgeUnmarshalArity(t *testing.T) {
	var e Edge
	if err := json.Unmarshal([]byte(`[3,7]`), &e); err != nil || e != (Edge{3, 7}) {
		t.Fatalf("Unmarshal([3,7]) = %v, %v", e, err)
	}
	for _, bad := range []string{`[1]`, `[1,2,3]`, `[]`, `"ab"`, `{"from":1}`, `[1,"x"]`} {
		if err := json.Unmarshal([]byte(bad), &e); err == nil {
			t.Errorf("Unmarshal(%s) succeeded, want error", bad)
		}
	}
}

func TestExplicitDAG(t *testing.T) {
	// Diamond with a skip edge: 3 source→sink paths, depth 2.
	d, err := ExplicitDAG(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 4 || d.NumEdges() != 5 {
		t.Fatalf("NumNodes/NumEdges = %d/%d, want 4/5", d.NumNodes(), d.NumEdges())
	}
	if d.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", d.Depth())
	}
	// A single isolated node is a legal explicit DAG.
	if d, err := ExplicitDAG(1, nil); err != nil || d.NumNodes() != 1 {
		t.Errorf("ExplicitDAG(1, nil) = %v, %v; want 1-node dag", d, err)
	}
	// Disconnected components are allowed — nothing is invented.
	if d, err := ExplicitDAG(4, []Edge{{0, 1}}); err != nil || len(d.Sources()) != 3 {
		t.Errorf("disconnected explicit dag = %v (err %v), want 3 sources", d, err)
	}
}

func TestExplicitDAGRejections(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		edges []Edge
		want  string // substring of the error
	}{
		{"zero nodes", 0, nil, "needs >= 1 node"},
		{"self edge", 3, []Edge{{1, 1}}, "self-loop"},
		{"duplicate edge", 3, []Edge{{0, 1}, {0, 1}}, "duplicate edge"},
		{"out of range", 3, []Edge{{0, 5}}, "out of range"},
		{"negative endpoint", 3, []Edge{{-1, 2}}, "out of range"},
		// Both narrow to the valid edge (0,1) if converted before the check.
		{"endpoint past 32 bits", 4, []Edge{{0, 4294967297}}, "out of range"},
		{"negative endpoint past 32 bits", 4, []Edge{{-4294967296, 1}}, "out of range"},
		{"cycle", 3, []Edge{{0, 1}, {1, 2}, {2, 0}}, "cycle"},
	}
	for _, tc := range cases {
		_, err := ExplicitDAG(tc.nodes, tc.edges)
		if err == nil {
			t.Errorf("%s: ExplicitDAG succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	// The cycle rejection must be the shared dag.ErrCycle from the Kahn
	// check, not a bespoke error.
	if _, err := ExplicitDAG(3, []Edge{{0, 1}, {1, 2}, {2, 0}}); !errors.Is(err, dag.ErrCycle) {
		t.Errorf("cycle error = %v, want errors.Is(_, dag.ErrCycle)", err)
	}
}
