package run

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// TestValidateOverflowRegression is the admission-bypass regression test:
// stages and width chosen so stages*width+2 wraps negative in int64
// (3037000500² ≈ 2^63.0006), which the old `stages*width+2 > MaxNodes`
// check accepted — letting a spec through whose generator would then try to
// allocate ~9e18 nodes. The overflow-safe division form must reject it at
// admission with ErrInvalidSpec.
func TestValidateOverflowRegression(t *testing.T) {
	overflowing := []Spec{
		{Config: gen.Config{Shape: gen.Pipeline, Stages: 3037000500, Width: 3037000500}},
		{Config: gen.Config{Shape: gen.Pipeline, Stages: 1 << 62, Width: 1 << 1}},
		{Config: gen.Config{Shape: gen.Pipeline, Stages: MaxNodes, Width: MaxNodes}},
	}
	for _, spec := range overflowing {
		err := spec.Validate()
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("Validate(stages=%d width=%d) = %v, want ErrInvalidSpec",
				spec.Stages, spec.Width, err)
		}
	}
	// The boundary itself still admits: stages*width+2 == MaxNodes exactly.
	edge := Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: (MaxNodes - 2) / 2, Width: 2}}
	if err := edge.Validate(); err != nil {
		t.Errorf("Validate at the node-cap boundary = %v, want nil", err)
	}
}

func TestValidateChain(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"chain ok", Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 1000}}, true},
		{"chain single node", Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 1}}, true},
		{"chain at cap", Spec{Config: gen.Config{Shape: gen.Chain, Nodes: MaxNodes}}, true},
		{"chain zero nodes", Spec{Config: gen.Config{Shape: gen.Chain}}, false},
		{"chain over cap", Spec{Config: gen.Config{Shape: gen.Chain, Nodes: MaxNodes + 1}}, false},
		{"deep width-1 pipeline", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: MaxNodes - 2, Width: 1}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func TestValidateDynamic(t *testing.T) {
	dyn := func(stages, width int, p float64) Spec {
		return Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: stages, Width: width, EdgeProb: p}}
	}
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"dynamic ok", dyn(8, 2, 0.2), true},
		{"dynamic max width", dyn(8, MaxDynWidth, 0.5), true},
		{"dynamic zero stages", dyn(0, 2, 0.2), false},
		{"dynamic stages over cap", dyn(MaxNodes, 2, 0.2), false},
		{"dynamic zero width", dyn(8, 0, 0.2), false},
		{"dynamic width over cap", dyn(8, MaxDynWidth+1, 0.2), false},
		{"dynamic bad prob", dyn(8, 2, 1.5), false},
		{"dynamic NaN prob", dyn(8, 2, math.NaN()), false},
		{"dynamic +Inf prob", dyn(8, 2, math.Inf(1)), false},
		{"dynamic -Inf prob", dyn(8, 2, math.Inf(-1)), false},
		{"dynamic nodes set", func() Spec { s := dyn(8, 2, 0.2); s.Nodes = 100; return s }(), false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func TestValidateParallelWork(t *testing.T) {
	ok := pipelineSpec()
	ok.ParallelWork = true
	ok.Work = 10000
	if err := ok.Validate(); err != nil {
		t.Errorf("parallel_work on pipeline/pathcount rejected: %v", err)
	}
	dynSpec := Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: 4, Width: 2}}
	dynSpec.ParallelWork = true
	if err := dynSpec.Validate(); err != nil {
		t.Errorf("parallel_work on the dynamic shape rejected: %v", err)
	}
}

// TestExecuteChainDeep runs a deep chain end to end through Execute — the
// depth class (≥500k) the service must sustain for the deep-span scenario.
func TestExecuteChainDeep(t *testing.T) {
	spec := Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 600_000}}
	res, err := Execute(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Error("deep chain Match = false")
	}
	if res.Nodes != 600_000 || res.Depth != 599_999 {
		t.Errorf("Nodes/Depth = %d/%d, want 600000/599999", res.Nodes, res.Depth)
	}
	if res.SinkPaths != 1 {
		t.Errorf("chain SinkPaths = %d, want 1", res.SinkPaths)
	}
}

func TestExecuteDynamic(t *testing.T) {
	spec := Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: 8, Width: 3, EdgeProb: 0.3, Seed: 21}}
	res, err := Execute(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Error("dynamic Match = false")
	}
	if res.Nodes < 9 { // at least root + one child per stage
		t.Errorf("dynamic Nodes = %d, want >= 9", res.Nodes)
	}
	if res.Depth != 8 {
		t.Errorf("dynamic Depth = %d, want 8 (one level per stage)", res.Depth)
	}
	// Determinism: the same spec executes to the same graph.
	res2, err := Execute(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Nodes != res.Nodes || res2.Edges != res.Edges || res2.SinkPaths != res.SinkPaths {
		t.Errorf("dynamic re-execution diverged: %+v vs %+v", res2, res)
	}
}

// TestExecuteDynamicGrowthBound pins the fail-closed acceptance criterion:
// a dynamic spec whose final graph would exceed MaxNodes fails at the
// growth bound instead of running away.
func TestExecuteDynamicGrowthBound(t *testing.T) {
	spec := Spec{Config: gen.Config{Shape: gen.Dynamic, Stages: 20, Width: 4, EdgeProb: 0, Seed: 7}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("growth-bound spec must pass admission (size unknowable there): %v", err)
	}
	res, err := Execute(context.Background(), spec, 4)
	if !errors.Is(err, gen.ErrGrowthBound) {
		t.Fatalf("Execute = (%+v, %v), want gen.ErrGrowthBound", res, err)
	}
}

// TestExecuteParallelWork pins the parallel_work knob through Execute for
// every workload, on a built pipeline and on a discovered dynamic graph at
// two pool widths: each run completes with Match=true, proving pure-hook
// finalization plus scheduler-side sliced work equals the inline-spin serial
// reference. Admission no longer asks whether a workload splits, so this is
// what holds each one to it.
func TestExecuteParallelWork(t *testing.T) {
	pipeline := gen.Config{Shape: gen.Pipeline, Stages: 20, Width: 2}
	dynamic := gen.Config{Shape: gen.Dynamic, Stages: 6, Width: 2, EdgeProb: 0.3, Seed: 21}
	for _, name := range sched.Workloads() {
		for _, spec := range []Spec{
			{Config: pipeline},
			{Config: dynamic, Workers: 2},
			{Config: dynamic, Workers: 4},
		} {
			spec.Work = 1 << 16
			spec.ParallelWork = true
			spec.Workload = name
			res, err := Execute(context.Background(), spec, 8)
			if err != nil {
				t.Fatalf("%s %s P=%d: %v", name, spec.Shape, spec.Workers, err)
			}
			if !res.Match {
				t.Errorf("%s %s P=%d: parallel_work Match = false", name, spec.Shape, spec.Workers)
			}
		}
	}
}
