package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// TestServiceLifecycle drives the composed service end to end:
// submit → poll → result, cancel semantics, stats, shutdown.
func TestServiceLifecycle(t *testing.T) {
	svc, err := NewService(ServiceOptions{QueueDepth: 4, Dispatchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := svc.Dispatcher.Submit(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 30, Width: 3}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	var got run.Run
	for {
		got, err = svc.Store.Get(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in state %s", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got.State != run.StateSucceeded || got.Result == nil || !got.Result.Match {
		t.Fatalf("run = %+v, want succeeded with matching result", got)
	}
	if list := svc.Store.List(); len(list) != 1 || list[0].ID != r.ID {
		t.Fatalf("List = %+v, want the one run", list)
	}
	stats := svc.Stats()
	if stats.Runs != 1 || stats.ByState[run.StateSucceeded.String()] != 1 {
		t.Errorf("Stats = %+v, want 1 succeeded run", stats)
	}
	if _, err := svc.Dispatcher.Cancel(r.ID); !errors.Is(err, run.ErrTerminal) {
		t.Errorf("Cancel(terminal) = %v, want run.ErrTerminal", err)
	}
	if _, err := svc.Store.Get("r000000-missing"); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Get(missing) = %v, want run.ErrNotFound", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Dispatcher.Submit(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2}}); !errors.Is(err, dispatch.ErrShuttingDown) {
		t.Errorf("Submit after Shutdown = %v, want dispatch.ErrShuttingDown", err)
	}
}

// TestRetentionSurvivesRestart: evictions are not logged, so with no
// compaction in between a restart replays every run the first process
// ever finished — and the same RetainRuns, applied before the service
// hands out its store, leaves a reader exactly the list it left.
func TestRetentionSurvivesRestart(t *testing.T) {
	const keep, total = 3, 9
	opts := ServiceOptions{
		Dispatchers: 1, RetainRuns: keep,
		DataDir: t.TempDir(), WALShards: 2, CompactThreshold: -1,
	}
	listing := func(svc *Service) string {
		t.Helper()
		b, err := json.Marshal(svc.Store.List())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	shutdown := func(svc *Service) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i := 0; i < total; i++ {
		r, err := svc.Dispatcher.Submit(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := svc.Store.Await(ctx, r.ID); err != nil || got.State != run.StateSucceeded {
			t.Fatalf("run %s = %s, %v; want succeeded", r.ID, got.State, err)
		}
	}
	// The last completion's eviction trails its Await by a few instructions.
	for deadline := time.Now().Add(10 * time.Second); svc.Store.Len() != keep; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d runs, want %d", svc.Store.Len(), keep)
		}
	}
	before := listing(svc)
	shutdown(svc)

	svc2, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(svc2)
	if after := listing(svc2); after != before {
		t.Errorf("listing changed across a restart:\n before %s\n after  %s", before, after)
	}
	var page bytes.Buffer
	if err := svc2.Metrics().WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(&page)
	if err != nil {
		t.Fatal(err)
	}
	if n := fams["dagd_runs_evicted_total"].Sum(); n != total-keep {
		t.Errorf("dagd_runs_evicted_total = %v on the second boot, want the %d runs replay resurrected", n, total-keep)
	}
}
