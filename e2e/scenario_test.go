package e2e

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"syscall"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// slowDynamicSpec expands to a few thousand nodes with enough per-node work
// (on two workers) that a SIGKILL issued after observing it running always
// lands mid-flight — the dynamic analogue of slowSpec.
func slowDynamicSpec() api.RunSpec {
	return api.RunSpec{Shape: api.ShapeDynamic, Stages: 12, Width: 3, EdgeProb: 0.2, Seed: 31, Work: 60000, Workers: 2}
}

// TestScenarioShapesThroughDagd drives one embedded dagd through what only
// a real process shows. One run per scenario shape/knob — a ≥500k-deep
// chain, a parallel_work pipeline, a dynamic run unsplit and with
// parallel_work — must verify end to end, the pipeline-cap overflow spec
// must be refused at admission, and an over-cap dynamic run must fail
// closed. Then the page those runs left on
// /metrics, the -debug-addr listener, and the SIGTERM drain are checked on
// the same process.
func TestScenarioShapesThroughDagd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test builds and runs a real process")
	}
	dataDir := t.TempDir()
	p := startDagd(t, dataDir, "-dispatchers", "2", "-debug-addr", "127.0.0.1:0")
	ctx := context.Background()

	cases := []struct {
		name     string
		spec     api.RunSpec
		minDepth int
		reject   error // non-nil: Submit must fail with this sentinel
	}{
		{"deep chain", api.RunSpec{Shape: api.ShapeChain, Nodes: 500001}, 500000, nil},
		{"parallel work", api.RunSpec{Shape: api.ShapePipeline, Stages: 10, Width: 2, Work: 65536, ParallelWork: true, Workload: "hashchain"}, 0, nil},
		{"dynamic", api.RunSpec{Shape: api.ShapeDynamic, Stages: 8, Width: 3, EdgeProb: 0.3, Seed: 11}, 8, nil},
		{"dynamic parallel work", api.RunSpec{Shape: api.ShapeDynamic, Stages: 6, Width: 2, EdgeProb: 0.3, Seed: 11, Work: 65536, ParallelWork: true, Workload: "hashchain"}, 6, nil},
		// stages·width = 3037000500² wraps negative in int64, which an
		// unguarded cap check admits.
		{"overflow pipeline", api.RunSpec{Shape: api.ShapePipeline, Stages: 3037000500, Width: 3037000500}, 0, api.ErrInvalidSpec},
	}
	for _, tc := range cases {
		r, err := p.c.Submit(ctx, tc.spec)
		if tc.reject != nil {
			if !errors.Is(err, tc.reject) {
				t.Errorf("%s: Submit = %v, want %v", tc.name, err, tc.reject)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Submit: %v", tc.name, err)
		}
		if fin := waitSucceeded(t, p.c, r.ID); fin.Result.Depth < tc.minDepth {
			t.Errorf("%s: depth = %d, want >= %d", tc.name, fin.Result.Depth, tc.minDepth)
		}
	}

	// A dynamic run whose expansion exceeds the node cap fails closed.
	over, err := p.c.Submit(ctx, api.RunSpec{Shape: api.ShapeDynamic, Stages: 20, Width: 4, Seed: 7})
	if err != nil {
		t.Fatalf("Submit(over-cap dynamic): %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	fin, err := p.c.Wait(wctx, over.ID)
	cancel()
	if err != nil {
		t.Fatalf("Wait(over-cap dynamic): %v", err)
	}
	if fin.State != api.StateFailed {
		t.Fatalf("over-cap dynamic run = %s, want failed at the growth bound", fin.State)
	}

	// The runs above moved every core series, on a page that strict-parses.
	fams := scrapeMetrics(t, p.base)
	for _, name := range []string{
		"dagd_runs_completed_total",
		"dagd_submits_total",
		"dagd_http_requests_total",
		"dagd_sched_nodes_executed_total",
		"dagd_queue_wait_seconds",
		"dagd_run_duration_seconds",
		"dagd_http_request_seconds",
	} {
		if f := fams[name]; f == nil || f.Sum() < 1 {
			t.Fatalf("/metrics family %s = %+v after the scenario runs, want a sum >= 1", name, f)
		}
	}
	// Label values are the real state names, not a conversion accident.
	succeeded := 0.0
	for _, s := range fams["dagd_runs_completed_total"].Samples {
		if s.Labels["state"] == "succeeded" {
			succeeded += s.Value
		}
	}
	if succeeded < 3 {
		t.Errorf(`dagd_runs_completed_total{state="succeeded"} = %v, want >= 3`, succeeded)
	}

	// The debug listener serves pprof, expvar and a second /metrics outside
	// the instrumented middleware: no request ID, and scraping it does not
	// move the request counter.
	debugGet := func(path string) *http.Response {
		resp, err := http.Get(p.debugBase + path)
		if err != nil {
			t.Fatalf("GET debug %s: %v", path, err)
		}
		if rid := resp.Header.Get("X-Request-ID"); resp.StatusCode != http.StatusOK || rid != "" {
			t.Errorf("GET debug %s = %d (request id %q), want an uninstrumented 200", path, resp.StatusCode, rid)
		}
		return resp
	}
	debugGet("/debug/pprof/").Body.Close()
	var vars struct {
		Memstats struct{ HeapAlloc *uint64 } `json:"memstats"`
	}
	resp := debugGet("/debug/vars")
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil || vars.Memstats.HeapAlloc == nil {
		t.Errorf("/debug/vars has no memstats.HeapAlloc (decode error %v)", err)
	}
	before := scrapeMetrics(t, p.debugBase)["dagd_http_requests_total"]
	after := scrapeMetrics(t, p.debugBase)["dagd_http_requests_total"]
	if before == nil || before.Type != "counter" || before.Sum() != after.Sum() {
		t.Errorf("debug /metrics: dagd_http_requests_total = %+v then %+v, want one unmoved counter", before, after)
	}

	// SIGTERM with a slow run in flight: the drain holds the process open,
	// /readyz flips to 503 shutting_down while /healthz stays 200, and dagd
	// exits 0 only once the run is finished — not dropped.
	slow, err := p.c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatalf("Submit(slow): %v", err)
	}
	waitState(t, p.c, slow.ID, api.StateRunning)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz during drain: %v", err)
		}
		var env api.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && env.Error != nil && env.Error.Code == api.CodeShuttingDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz during drain = %d %+v, want 503 shutting_down", resp.StatusCode, env.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(p.base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", resp.StatusCode)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("dagd exited uncleanly after SIGTERM: %v", err)
	}
	// What the drain finished is history on the next boot, never re-run.
	p2 := startDagd(t, dataDir)
	if r, err := p2.c.Get(ctx, slow.ID); err != nil || r.State != api.StateSucceeded || r.Restarts != 0 {
		t.Errorf("run in flight at SIGTERM = %+v, %v after restart; want succeeded with no restart", r, err)
	}
	p2.stop(t)
}

// TestDynamicCrashRecovery is the WAL satellite: SIGKILL dagd while a
// dynamic run is mid-expansion, restart on the same data dir, and require
// the run to be re-admitted and driven to a verified completion (the
// expansion is deterministic, so the re-executed graph is the same one).
func TestDynamicCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e restart test builds and kills real processes")
	}
	dataDir := t.TempDir()
	ctx := context.Background()

	p1 := startDagd(t, dataDir)
	slow, err := p1.c.Submit(ctx, slowDynamicSpec())
	if err != nil {
		t.Fatalf("Submit(slow dynamic): %v", err)
	}
	waitState(t, p1.c, slow.ID, api.StateRunning)
	p1.sigkill(t)

	p2 := startDagd(t, dataDir)
	got, err := p2.c.Get(ctx, slow.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if got.Restarts < 1 {
		t.Errorf("interrupted dynamic run has Restarts = %d, want >= 1", got.Restarts)
	}
	waitSucceeded(t, p2.c, slow.ID)
	p2.stop(t)
}
