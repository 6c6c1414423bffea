package run

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

func pipelineSpec() Spec {
	return Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 10, Width: 2}}
}

func mustCreate(t *testing.T, s Store, spec Spec) Run {
	t.Helper()
	r, err := s.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return r
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"random ok", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 100, EdgeProb: 0.1}}, true},
		{"pipeline ok", pipelineSpec(), true},
		{"random too small", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 1}}, false},
		{"random too big", Spec{Config: gen.Config{Shape: gen.Random, Nodes: MaxNodes + 1}}, false},
		{"random too dense", Spec{Config: gen.Config{Shape: gen.Random, Nodes: MaxNodes, EdgeProb: 1}}, false},
		{"random big but sparse", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 100000, EdgeProb: 0.0001}}, true},
		{"bad prob", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 10, EdgeProb: 1.5}}, false},
		{"pipeline zero width", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 0}}, false},
		{"pipeline node cap", Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: MaxNodes, Width: 2}}, false},
		{"bad shape", Spec{Config: gen.Config{Shape: gen.Shape(42), Nodes: 10}}, false},
		{"negative work", func() Spec { s := pipelineSpec(); s.Work = -1; return s }(), false},
		{"too many workers", func() Spec { s := pipelineSpec(); s.Workers = MaxWorkers + 1; return s }(), false},
		{"default workload", func() Spec { s := pipelineSpec(); s.Workload = ""; return s }(), true},
		{"named workload", func() Spec { s := pipelineSpec(); s.Workload = "hashchain"; return s }(), true},
		{"unknown workload", func() Spec { s := pipelineSpec(); s.Workload = "bogus"; return s }(), false},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestValidateSentinels pins that every admission failure wraps exactly
// one of the two sentinels the API layer maps to error codes.
func TestValidateSentinels(t *testing.T) {
	explicit := func(nodes int, edges []gen.Edge) Spec {
		return Spec{Config: gen.Config{Shape: gen.Explicit, Nodes: nodes, Edges: edges}}
	}
	invalid := []struct {
		name string
		spec Spec
	}{
		{"random too small", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 1}}},
		{"bad shape", Spec{Config: gen.Config{Shape: gen.Shape(42)}}},
		{"negative work", func() Spec { s := pipelineSpec(); s.Work = -1; return s }()},
		{"explicit ok graph on random shape", Spec{Config: gen.Config{Shape: gen.Random, Nodes: 10, EdgeProb: 0.1, Edges: []gen.Edge{{0, 1}}}}},
		{"explicit zero nodes", explicit(0, nil)},
		{"explicit cycle", explicit(3, []gen.Edge{{0, 1}, {1, 2}, {2, 0}})},
		{"explicit self edge", explicit(3, []gen.Edge{{1, 1}})},
		{"explicit duplicate edge", explicit(3, []gen.Edge{{0, 1}, {0, 1}})},
		{"explicit out of range", explicit(3, []gen.Edge{{0, 7}})},
	}
	for _, tc := range invalid {
		err := tc.spec.Validate()
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidSpec", tc.name, err)
		}
		if errors.Is(err, ErrUnknownWorkload) {
			t.Errorf("%s: Validate() also wraps ErrUnknownWorkload", tc.name)
		}
	}

	bad := pipelineSpec()
	bad.Workload = "no-such-workload"
	if err := bad.Validate(); !errors.Is(err, ErrUnknownWorkload) || errors.Is(err, ErrInvalidSpec) {
		t.Errorf("unknown workload Validate() = %v, want ErrUnknownWorkload only", err)
	}

	// A valid explicit spec admits and executes end to end.
	ok := explicit(4, []gen.Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid explicit spec rejected: %v", err)
	}
	res, err := Execute(context.Background(), ok, 2)
	if err != nil {
		t.Fatalf("Execute(explicit): %v", err)
	}
	if !res.Match || res.Nodes != 4 || res.Edges != 4 {
		t.Errorf("explicit Execute result = %+v, want match with 4 nodes / 4 edges", res)
	}
	// Diamond source→sink path count is 2 under the default pathcount.
	if res.SinkPaths != 2 {
		t.Errorf("diamond sink paths = %d, want 2", res.SinkPaths)
	}
}

// TestValidateExplicitEdgeCap pins the MaxEdges bound without building a
// MaxEdges-sized graph: the length check must fire before edge content is
// examined.
func TestValidateExplicitEdgeCap(t *testing.T) {
	edges := make([]gen.Edge, MaxEdges+1) // all zero-valued, i.e. junk self-loops
	spec := Spec{Config: gen.Config{Shape: gen.Explicit, Nodes: 2, Edges: edges}}
	err := spec.Validate()
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("Validate(%d edges) = %v, want ErrInvalidSpec", len(edges), err)
	}
	if want := fmt.Sprintf("cap is %d", MaxEdges); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Config:   gen.Config{Shape: gen.Random, Nodes: 500, EdgeProb: 0.02, Seed: 7},
		Workload: "hashchain",
		Work:     100,
	}
	// The wire format flattens generator and execution knobs into one object
	// with the shape serialized by name.
	blob := `{"shape":"random","nodes":500,"p":0.02,"seed":7,"workload":"hashchain","work":100}`
	var decoded Spec
	if err := json.Unmarshal([]byte(blob), &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, spec) {
		t.Errorf("decoded %+v, want %+v", decoded, spec)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var roundTripped Spec
	if err := json.Unmarshal(out, &roundTripped); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roundTripped, spec) {
		t.Errorf("round trip %+v, want %+v", roundTripped, spec)
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	s := NewMemStore()
	r := mustCreate(t, s, pipelineSpec())
	if r.State != StateQueued || r.ID == "" || r.CreatedAt.IsZero() {
		t.Fatalf("Create = %+v, want queued with ID and CreatedAt", r)
	}

	began, err := s.Begin(r.ID, time.Now(), "", func() {})
	if err != nil {
		t.Fatal(err)
	}
	if began.State != StateRunning || began.StartedAt == nil {
		t.Fatalf("Begin = %+v, want running with StartedAt", began)
	}

	res := &Result{Nodes: 22, Match: true}
	fin, err := s.Finish(r.ID, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateSucceeded || fin.FinishedAt == nil || fin.Result != res {
		t.Fatalf("Finish = %+v, want succeeded with result", fin)
	}
	if !fin.State.Terminal() {
		t.Error("succeeded not terminal")
	}
}

func TestFinishError(t *testing.T) {
	s := NewMemStore()
	r := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	fin, err := s.Finish(r.ID, nil, errors.New("boom"))
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || fin.Error != "boom" {
		t.Fatalf("Finish(err) = %+v, want failed/boom", fin)
	}
}

func TestFinishCancelled(t *testing.T) {
	s := NewMemStore()
	r := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	fin, err := s.Finish(r.ID, nil, fmt.Errorf("run aborted: %w", context.Canceled))
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Fatalf("Finish(ctx cancelled) state = %s, want cancelled", fin.State)
	}
}

func TestCancelQueued(t *testing.T) {
	s := NewMemStore()
	r := mustCreate(t, s, pipelineSpec())
	c, err := s.Cancel(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateCancelled || c.FinishedAt == nil {
		t.Fatalf("Cancel(queued) = %+v, want cancelled", c)
	}
	// A dispatcher popping this ID later must be refused.
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); !errors.Is(err, ErrNotQueued) {
		t.Errorf("Begin after cancel = %v, want ErrNotQueued", err)
	}
	// Cancelling again is a terminal-state error.
	if _, err := s.Cancel(r.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("second Cancel = %v, want ErrTerminal", err)
	}
}

func TestCancelRunningInvokesHook(t *testing.T) {
	s := NewMemStore()
	r := mustCreate(t, s, pipelineSpec())
	fired := false
	if _, err := s.Begin(r.ID, time.Now(), "", func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	c, err := s.Cancel(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("cancel hook not invoked")
	}
	// State stays running until the dispatcher observes the cancellation.
	if c.State != StateRunning {
		t.Errorf("Cancel(running) state = %s, want running", c.State)
	}
	fin, err := s.Finish(r.ID, nil, context.Canceled)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Errorf("state after Finish = %s, want cancelled", fin.State)
	}
}

func TestGetAndListAndDelete(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		ids = append(ids, mustCreate(t, s, pipelineSpec()).ID)
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	list := s.List()
	if len(list) != 10 {
		t.Fatalf("List len = %d, want 10", len(list))
	}
	for i := 1; i < len(list); i++ {
		prev, cur := list[i-1], list[i]
		if cur.CreatedAt.Before(prev.CreatedAt) {
			t.Fatal("List not ordered oldest-first")
		}
	}
	seen := make(map[string]bool)
	for _, r := range list {
		seen[r.ID] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("List missing run %s", id)
		}
	}
	s.Delete(ids[0])
	if _, err := s.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete = %v, want ErrNotFound", err)
	}
	counts := s.CountByState()
	if counts[StateQueued] != 9 {
		t.Errorf("CountByState[queued] = %d, want 9", counts[StateQueued])
	}
}

// TestTerminalSnapshotDropsEdges pins the retained-memory bound: an
// explicit run's edge list (up to ~64MB) is dropped from its snapshot
// once the run is terminal, for both the finish and cancelled-while-
// queued paths. Non-terminal snapshots keep it (the dispatcher executes
// from the Begin snapshot).
func TestTerminalSnapshotDropsEdges(t *testing.T) {
	explicit := Spec{Config: gen.Config{Shape: gen.Explicit, Nodes: 3, Edges: []gen.Edge{{0, 1}, {1, 2}}}}
	s := NewMemStore()

	r := mustCreate(t, s, explicit)
	began, err := s.Begin(r.ID, time.Now(), "", func() {})
	if err != nil {
		t.Fatal(err)
	}
	if len(began.Spec.Edges) != 2 {
		t.Fatalf("Begin snapshot lost the edges the dispatcher executes from: %+v", began.Spec)
	}
	if _, err := s.Finish(r.ID, &Result{Match: true}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Edges != nil {
		t.Errorf("finished run still retains %d edges", len(got.Spec.Edges))
	}
	if !got.SpecRedacted {
		t.Error("finished run with dropped edges not marked SpecRedacted")
	}

	q := mustCreate(t, s, explicit)
	if _, err := s.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Edges != nil {
		t.Errorf("cancelled-queued run still retains %d edges", len(got.Spec.Edges))
	}
	if !got.SpecRedacted {
		t.Error("cancelled-queued run with dropped edges not marked SpecRedacted")
	}

	// Runs that never carried an edge list are not marked redacted.
	p := mustCreate(t, s, pipelineSpec())
	if _, err := s.Cancel(p.ID); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecRedacted {
		t.Error("edgeless run marked SpecRedacted")
	}
}

// TestCreatedAtHasNoMonotonicClock pins that snapshots carry wall-clock
// times only, so the API layer's UnixNano pagination cursors order runs
// exactly as List does.
func TestCreatedAtHasNoMonotonicClock(t *testing.T) {
	r, err := NewMemStore().Create(pipelineSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A time with a monotonic reading prints it as "m=+...": Round(0)
	// must have stripped it.
	if s := r.CreatedAt.String(); strings.Contains(s, " m=") {
		t.Errorf("CreatedAt %q still carries a monotonic reading", s)
	}
}

func TestAwait(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Await(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Await(missing) = %v, want ErrNotFound", err)
	}

	// Terminal runs return immediately, no blocking.
	done := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(done.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(done.ID, &Result{Match: true}, nil); err != nil {
		t.Fatal(err)
	}
	r, err := s.Await(context.Background(), done.ID)
	if err != nil || r.State != StateSucceeded {
		t.Fatalf("Await(terminal) = %v, %v; want succeeded", r, err)
	}

	// A waiter parked on a running run is released by Finish.
	live := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(live.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	got := make(chan Run, 1)
	go func() {
		r, err := s.Await(context.Background(), live.ID)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	if _, err := s.Finish(live.ID, nil, errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.State != StateFailed || r.Error != "boom" {
			t.Errorf("released Await = %+v, want failed/boom", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Await never released after Finish")
	}

	// A ctx timeout returns the current (non-terminal) snapshot.
	waiting := mustCreate(t, s, pipelineSpec())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r, err = s.Await(ctx, waiting.ID)
	if err != nil || r.State != StateQueued {
		t.Errorf("Await(timeout) = %+v, %v; want queued snapshot", r, err)
	}

	// Cancelling a queued run releases waiters too.
	q := mustCreate(t, s, pipelineSpec())
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Cancel(q.ID)
	}()
	r, err = s.Await(context.Background(), q.ID)
	if err != nil || r.State != StateCancelled {
		t.Errorf("Await(cancelled-queued) = %+v, %v; want cancelled", r, err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewMemStore()
	r := mustCreate(t, s, pipelineSpec())
	before, _ := s.Get(r.ID)
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	if before.State != StateQueued {
		t.Error("earlier snapshot mutated by later transition")
	}
}

// TestConcurrentLifecycles hammers the store from many goroutines; run
// with -race this validates the locking.
func TestConcurrentLifecycles(t *testing.T) {
	s := NewMemStore()
	const n = 200
	var wg sync.WaitGroup
	ids := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// t.Fatal (via mustCreate) is not legal off the test goroutine.
			r, err := s.Create(pipelineSpec())
			if err != nil {
				t.Error(err)
				return
			}
			ids <- r.ID
			if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Finish(r.ID, &Result{Match: true}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	// Concurrent readers.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.List()
				s.CountByState()
			}
		}()
	}
	wg.Wait()
	close(ids)
	unique := make(map[string]bool)
	for id := range ids {
		if unique[id] {
			t.Fatalf("duplicate run ID %s", id)
		}
		unique[id] = true
	}
	if got := s.CountByState()[StateSucceeded]; got != n {
		t.Errorf("succeeded = %d, want %d", got, n)
	}
}

func TestEvictTerminal(t *testing.T) {
	s := NewMemStore()
	finish := func(id string) {
		if _, err := s.Begin(id, time.Now(), "", func() {}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(id, &Result{Match: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for i := 0; i < 10; i++ {
		id := mustCreate(t, s, pipelineSpec()).ID
		ids = append(ids, id)
		finish(id)
	}
	queued := mustCreate(t, s, pipelineSpec()).ID
	running := mustCreate(t, s, pipelineSpec()).ID
	if _, err := s.Begin(running, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}

	if got := s.EvictTerminal(0); got != 0 {
		t.Errorf("EvictTerminal(0) = %d, want 0 (unlimited)", got)
	}
	if got := s.EvictTerminal(3); got != 7 {
		t.Fatalf("EvictTerminal(3) = %d, want 7", got)
	}
	// The oldest-finished terminal runs are gone, newest three remain.
	for _, id := range ids[:7] {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("evicted run %s still present", id)
		}
	}
	for _, id := range ids[7:] {
		if _, err := s.Get(id); err != nil {
			t.Errorf("retained run %s: %v", id, err)
		}
	}
	// Non-terminal runs are never touched.
	for _, id := range []string{queued, running} {
		if _, err := s.Get(id); err != nil {
			t.Errorf("non-terminal run %s evicted: %v", id, err)
		}
	}
	if got := s.EvictTerminal(3); got != 0 {
		t.Errorf("second EvictTerminal(3) = %d, want 0", got)
	}
}

func TestExecuteBothShapes(t *testing.T) {
	specs := []Spec{
		{Config: gen.Config{Shape: gen.Pipeline, Stages: 40, Width: 3}, Work: 5},
		{Config: gen.Config{Shape: gen.Random, Nodes: 300, EdgeProb: 0.02, Seed: 4}, Workers: 4},
	}
	for _, spec := range specs {
		res, err := Execute(context.Background(), spec, 2)
		if err != nil {
			t.Fatalf("Execute(%+v): %v", spec, err)
		}
		if !res.Match || res.SinkPaths == 0 || res.Nodes == 0 {
			t.Errorf("Execute(%+v) = %+v, want matching nonzero result", spec, res)
		}
	}
}

func TestExecuteDeterministicAcrossCalls(t *testing.T) {
	spec := Spec{Config: gen.Config{Shape: gen.Random, Nodes: 200, EdgeProb: 0.05, Seed: 9}}
	a, err := Execute(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.SinkPaths != b.SinkPaths {
		t.Errorf("same spec, different sink paths: %d vs %d", a.SinkPaths, b.SinkPaths)
	}
}

// TestExecuteAllWorkloads drives every registered workload through the
// shared execution path: each must generate, verify serial-vs-parallel, and
// stamp its name into the result.
func TestExecuteAllWorkloads(t *testing.T) {
	for _, name := range sched.Workloads() {
		if name == brokenWorkloadName {
			continue
		}
		spec := Spec{
			Config:   gen.Config{Shape: gen.Random, Nodes: 200, EdgeProb: 0.03, Seed: 8},
			Workload: name,
			Workers:  4,
		}
		res, err := Execute(context.Background(), spec, 2)
		if err != nil {
			t.Fatalf("Execute(workload=%s): %v", name, err)
		}
		if !res.Match {
			t.Errorf("workload %s: match = false", name)
		}
		if res.Workload != name {
			t.Errorf("result workload = %q, want %q", res.Workload, name)
		}
	}
}

// brokenWorkload is a deliberately inconsistent workload: its parallel hook
// and serial reference disagree on every non-source node, so Execute must
// take the mismatch path.
const brokenWorkloadName = "broken-for-test"

type brokenWorkload struct{}

func (brokenWorkload) Name() string { return brokenWorkloadName }

func (brokenWorkload) Compute(work int) sched.Compute {
	return func(id dag.NodeID, parentValues []uint64) uint64 { return uint64(len(parentValues)) }
}

func (brokenWorkload) Serial(ctx context.Context, d *dag.DAG, work int) ([]uint64, error) {
	values := make([]uint64, d.NumNodes())
	for i := range values {
		values[i] = 1 << 40 // never what Compute returns for a non-source
	}
	return values, nil
}

func (brokenWorkload) Verify(d *dag.DAG, serial, parallel []uint64) error {
	for i := range serial {
		if serial[i] != parallel[i] {
			return fmt.Errorf("node %d: %d != %d", i, parallel[i], serial[i])
		}
	}
	return nil
}

func init() {
	if err := sched.RegisterWorkload(brokenWorkload{}); err != nil {
		panic(err)
	}
}

// TestExecuteMismatch covers the self-check failure path: a broken workload
// must yield Match=false and an error wrapping ErrMismatch, with the
// measured Result still returned so callers can report timings alongside
// the failure.
func TestExecuteMismatch(t *testing.T) {
	spec := pipelineSpec()
	spec.Workload = brokenWorkloadName
	if err := spec.Validate(); err != nil {
		t.Fatalf("registered broken workload failed validation: %v", err)
	}
	res, err := Execute(context.Background(), spec, 2)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("Execute(broken) error = %v, want ErrMismatch", err)
	}
	if res == nil {
		t.Fatal("mismatch path returned nil Result; measured timings must survive the failure")
	}
	if res.Match {
		t.Error("mismatch result has Match=true")
	}
	if res.Workload != brokenWorkloadName {
		t.Errorf("result workload = %q, want %q", res.Workload, brokenWorkloadName)
	}
	if res.Nodes == 0 {
		t.Error("mismatch result lost its measurements")
	}
}

func TestExecuteUnknownWorkload(t *testing.T) {
	spec := pipelineSpec()
	spec.Workload = "no-such-workload"
	res, err := Execute(context.Background(), spec, 2)
	if err == nil {
		t.Fatal("Execute with unknown workload succeeded")
	}
	if res != nil {
		t.Errorf("unknown workload returned a Result: %+v", res)
	}
}

func TestExecuteErrors(t *testing.T) {
	if _, err := Execute(context.Background(), Spec{Config: gen.Config{Shape: gen.Random, Nodes: 1}}, 2); err == nil {
		t.Error("Execute with ungeneratable spec succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(ctx, pipelineSpec(), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Execute(cancelled ctx) = %v, want context.Canceled", err)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{StateQueued, StateRunning, StateSucceeded, StateFailed, StateCancelled} {
		parsed, err := ParseState(s.String())
		if err != nil || parsed != s {
			t.Errorf("ParseState(%q) = %v, %v", s.String(), parsed, err)
		}
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Error("ParseState(bogus) succeeded")
	}
}
