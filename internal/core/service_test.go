package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
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
