package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// hammerSubmits floods POST /v1/runs with small fast runs from n goroutines
// (rotating through the given tenants; "" means no X-Tenant header) until
// stop is closed. Responses are drained and discarded — backpressure 429s
// are expected and fine; the point is to keep the dispatcher's counters
// moving while the observability surfaces are read.
func hammerSubmits(t *testing.T, base string, tenants []string, n int, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := tenants[i%len(tenants)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodPost, base+"/v1/runs",
					strings.NewReader(`{"shape":"pipeline","stages":5,"width":2,"work":5}`))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if tn != "" {
					req.Header.Set("X-Tenant", tn)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return // server closing down under t.Cleanup
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	return &wg
}

// TestHealthzConsistentSnapshotUnderLoad is the regression test for the
// /healthz stats race: the handler used to read QueueLen and the per-tenant
// table through separate lock acquisitions, so the serialized snapshot
// could claim a total queue length that disagreed with the sum of its own
// per-tenant queued counts (and, worse, build the tenant map while
// dispatch counters kept moving). Stats now serializes one
// dispatch.Snapshot taken under a single lock acquisition; this hammers
// /healthz during heavy concurrent Submit traffic and asserts the
// invariant on every response. Run with -race (CI does) to also prove the
// snapshot path is data-race free.
func TestHealthzConsistentSnapshotUnderLoad(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{
		QueueDepth:  512,
		Dispatchers: 2,
		Tenants: []tenant.Config{
			{Name: "ha", Weight: 2},
			{Name: "hb", Weight: 1},
		},
	})

	stop := make(chan struct{})
	wg := hammerSubmits(t, ts.URL, []string{"ha", "hb", ""}, 4, stop)
	defer func() {
		close(stop)
		wg.Wait()
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	checks := 0
	for time.Now().Before(deadline) {
		code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
		if code != http.StatusOK {
			t.Fatalf("GET /healthz = %d, want 200", code)
		}
		stats, ok := body["stats"].(map[string]any)
		if !ok {
			t.Fatalf("healthz body has no stats object: %v", body)
		}
		queueLen := int(stats["queue_len"].(float64))
		sum := 0
		tenants, ok := stats["tenants"].(map[string]any)
		if !ok {
			t.Fatalf("healthz stats has no tenants table: %v", stats)
		}
		for name, v := range tenants {
			tn, ok := v.(map[string]any)
			if !ok {
				t.Fatalf("tenant %s entry is not an object: %v", name, v)
			}
			sum += int(tn["queued"].(float64))
		}
		if queueLen != sum {
			t.Fatalf("inconsistent /healthz snapshot: queue_len=%d but per-tenant queued sums to %d", queueLen, sum)
		}
		checks++
	}
	if checks == 0 {
		t.Fatal("no /healthz checks executed")
	}
	t.Logf("verified %d consistent /healthz snapshots under load", checks)
}

// TestMetricsScrapeMidLoad scrapes GET /metrics repeatedly while the
// service churns through submissions, strict-parsing every page: no
// malformed line, label ordering and escaping intact, and every histogram
// family upholding its cumulative-bucket/+Inf/_sum/_count invariants even
// though observations land concurrently with rendering. A final quiesced
// scrape must show the core families with non-zero values.
func TestMetricsScrapeMidLoad(t *testing.T) {
	// A retention bound the load overruns at once, so the eviction counter
	// is part of the non-zero contract below.
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 256, Dispatchers: 2, RetainRuns: 8})

	stop := make(chan struct{})
	wg := hammerSubmits(t, ts.URL, []string{""}, 3, stop)

	scrape := func() map[string]*metrics.Family {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("/metrics Content-Type = %q", ct)
		}
		fams, err := metrics.ParsePrometheus(resp.Body)
		if err != nil {
			t.Fatalf("mid-load /metrics page failed strict parse: %v", err)
		}
		return fams
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	scrapes := 0
	for time.Now().Before(deadline) {
		scrape()
		scrapes++
	}
	close(stop)
	wg.Wait()

	fams := scrape()
	for _, name := range []string{
		"dagd_submits_total",
		"dagd_runs_completed_total",
		"dagd_runs_evicted_total",
		"dagd_queue_wait_seconds",
		"dagd_run_duration_seconds",
		"dagd_http_requests_total",
		"dagd_http_request_seconds",
		"dagd_sched_nodes_executed_total",
		"dagd_runs",
	} {
		f, ok := fams[name]
		if !ok {
			t.Errorf("/metrics lacks family %s", name)
			continue
		}
		if f.Sum() <= 0 {
			t.Errorf("family %s is zero after sustained load", name)
		}
	}
	// Terminal-state label values must be the state names, not rune-cast
	// integers: the load above only succeeds, so a state="succeeded" series
	// must carry the whole count.
	succeeded := 0.0
	for _, s := range fams["dagd_runs_completed_total"].Samples {
		if s.Labels["state"] == "succeeded" {
			succeeded += s.Value
		}
	}
	if succeeded < 1 {
		t.Errorf(`dagd_runs_completed_total lacks a positive state="succeeded" series: %+v`,
			fams["dagd_runs_completed_total"].Samples)
	}
	t.Logf("strict-parsed %d mid-load scrapes, %d families in the final page", scrapes, len(fams))
}
