package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/fleet"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// TestLeasedSpecKeepsGenVersion drives a coordinator-side fleet over HTTP
// and this worker's own lease → execute → complete path: a spec keeps the
// generator version admission stamped on it across the lease, and the
// worker executes that version's graph.
func TestLeasedSpecKeepsGenVersion(t *testing.T) {
	store := run.NewMemStore()
	d := dispatch.New(store, dispatch.Options{QueueDepth: 8, Remote: true})
	m := fleet.NewManager(d, fleet.Options{})
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})

	w := &worker{client: fleet.NewClient(srv.URL), name: "gv", capacity: 1, runWorkers: 2, running: make(map[string]*task)}
	ctx := context.Background()
	if err := w.register(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ submitted, stamped int }{{0, gen.CurrentVersion}, {1, 1}} {
		spec := run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 300, EdgeProb: 0.02, Seed: 5, GenVersion: tc.submitted}}
		sub, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		leased, err := w.client.Lease(ctx, w.currentID(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if leased.ID != sub.ID || leased.Spec.GenVersion != tc.stamped {
			t.Fatalf("leased %s with gen_version %d, want %s with %d", leased.ID, leased.Spec.GenVersion, sub.ID, tc.stamped)
		}
		w.execute(w.currentID(), leased)

		got, err := store.Get(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != run.StateSucceeded || got.Spec.GenVersion != tc.stamped {
			t.Fatalf("after the worker: %s with gen_version %d, want succeeded with %d", got.State, got.Spec.GenVersion, tc.stamped)
		}
		spec.GenVersion = tc.stamped
		want, err := run.Execute(ctx, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.SinkPaths != want.SinkPaths {
			t.Errorf("gen_version %d: worker's sink %d, want v%d's %d", tc.submitted, got.Result.SinkPaths, tc.stamped, want.SinkPaths)
		}
	}
}
