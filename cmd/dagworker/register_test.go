package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/fleet"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// TestRefusedRegisterReturnsAtOnce pins that a worker the coordinator
// refuses (a 400: its build differs) stops after the one call instead of
// retrying with backoff forever, and that it sent its build identity.
func TestRefusedRegisterReturnsAtOnce(t *testing.T) {
	var calls atomic.Int32
	var sent fleet.RegisterRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			json.NewDecoder(r.Body).Decode(&sent)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "worker gen_version 9, coordinator gen_version 2"})
	}))
	defer ts.Close()

	w := &worker{client: fleet.NewClient(ts.URL), name: "old", capacity: 1, running: make(map[string]*task)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.register(ctx)
	if !errors.Is(err, fleet.ErrRefused) || !strings.Contains(err.Error(), "gen_version 9") {
		t.Fatalf("register = %v, want ErrRefused carrying the coordinator's message", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("register made %d calls, want 1", n)
	}
	if sent.GenVersion != gen.CurrentVersion || strings.Join(sent.Workloads, ",") != strings.Join(sched.Workloads(), ",") {
		t.Fatalf("register sent %+v, want gen_version %d and workloads %v", sent, gen.CurrentVersion, sched.Workloads())
	}
}
