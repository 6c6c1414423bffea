package main

import (
	"context"
	"errors"
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
// worker executes that version's graph. The retired version 1 never reaches
// a worker: admission refuses it and stores no run.
func TestLeasedSpecKeepsGenVersion(t *testing.T) {
	store := run.NewMemStore()
	d := dispatch.New(store, dispatch.Options{QueueDepth: 8, Remote: true})
	m := fleet.NewManager(d, store, fleet.Options{})
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
	retired := run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 300, EdgeProb: 0.02, Seed: 5, GenVersion: 1}}
	if _, err := d.Submit(retired); !errors.Is(err, run.ErrInvalidSpec) {
		t.Fatalf("gen_version 1: Submit = %v, want ErrInvalidSpec", err)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("gen_version 1 refused but %d runs stored", n)
	}
	for _, submitted := range []int{0, gen.CurrentVersion} {
		spec := run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 300, EdgeProb: 0.02, Seed: 5, GenVersion: submitted}}
		sub, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		leased, err := w.client.Lease(ctx, w.currentID(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if leased.ID != sub.ID || leased.Spec.GenVersion != gen.CurrentVersion {
			t.Fatalf("leased %s with gen_version %d, want %s with %d", leased.ID, leased.Spec.GenVersion, sub.ID, gen.CurrentVersion)
		}
		w.execute(w.currentID(), leased)

		got, err := store.Get(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != run.StateSucceeded || got.Spec.GenVersion != gen.CurrentVersion {
			t.Fatalf("after the worker: %s with gen_version %d, want succeeded with %d", got.State, got.Spec.GenVersion, gen.CurrentVersion)
		}
		spec.GenVersion = gen.CurrentVersion
		want, err := run.Execute(ctx, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.SinkPaths != want.SinkPaths {
			t.Errorf("gen_version %d: worker's sink %d, want v%d's %d", submitted, got.Result.SinkPaths, gen.CurrentVersion, want.SinkPaths)
		}
	}
}
