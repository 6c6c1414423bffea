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
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
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

// scrape GETs /metrics and strict-parses the page: any malformed line,
// broken label ordering or escaping, or histogram invariant fails the test.
func scrape(t *testing.T, base string) map[string]*metrics.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
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
		t.Fatalf("/metrics page failed strict parse: %v", err)
	}
	return fams
}

// sample is the value of the named family's series with exactly labels,
// or false when the family or the series is absent.
func sample(fams map[string]*metrics.Family, name string, labels map[string]string) (float64, bool) {
	if f, ok := fams[name]; ok {
		return f.Value(labels)
	}
	return 0, false
}

// TestHealthzUnderLoad: the liveness probe reads no state, so under heavy
// concurrent Submit traffic every /healthz still answers 200 with exactly
// the liveness body. Run with -race (CI does) to also prove it touches
// nothing the submissions write.
func TestHealthzUnderLoad(t *testing.T) {
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
		if code, body := healthz(t, ts.URL); code != http.StatusOK || body != livenessBody {
			t.Fatalf("GET /healthz = %d %s, want 200 %s", code, body, livenessBody)
		}
		checks++
	}
	if checks == 0 {
		t.Fatal("no /healthz checks executed")
	}
	t.Logf("verified %d /healthz answers under load", checks)
}

// TestMetricsFirstScrape pins the load series that took over from the
// /healthz stats block: before anything is submitted, the first scrape
// already carries every tenant's queue and in-flight gauges at 0, the
// runs-by-state gauge for all five states and the recovered-runs gauge —
// and, on a coordinator only, the fleet's worker and lease gauges.
func TestMetricsFirstScrape(t *testing.T) {
	for _, remote := range []bool{false, true} {
		ts := newTestServer(t, core.ServiceOptions{
			QueueDepth:  4,
			Dispatchers: 1,
			Tenants:     []tenant.Config{{Name: "alpha", Weight: 3}},
			Remote:      remote,
		})
		fams := scrape(t, ts.URL)
		for _, name := range []string{"dagd_queue_depth", "dagd_inflight_runs"} {
			for _, tn := range []string{"alpha", tenant.Default} {
				want := map[string]string{"tenant": tn, "priority": "0"}
				if v, ok := sample(fams, name, want); !ok || v != 0 {
					t.Errorf("remote=%v: %s%v = %v (present %v), want 0", remote, name, want, v, ok)
				}
			}
		}
		for _, st := range []run.State{run.StateQueued, run.StateRunning, run.StateSucceeded, run.StateFailed, run.StateCancelled} {
			want := map[string]string{"state": st.String()}
			if v, ok := sample(fams, "dagd_runs", want); !ok || v != 0 {
				t.Errorf("remote=%v: dagd_runs%v = %v (present %v), want 0", remote, want, v, ok)
			}
		}
		if v, ok := sample(fams, "dagd_recovered_runs", nil); !ok || v != 0 {
			t.Errorf("remote=%v: dagd_recovered_runs = %v (present %v), want 0", remote, v, ok)
		}
		for _, name := range []string{"dagd_workers", "dagd_active_leases"} {
			v, ok := sample(fams, name, nil)
			if remote && (!ok || v != 0) {
				t.Errorf("coordinator: %s = %v (present %v), want 0", name, v, ok)
			}
			if !remote && ok {
				t.Errorf("embedded: %s = %v, want no fleet series", name, v)
			}
		}
	}
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

	deadline := time.Now().Add(500 * time.Millisecond)
	scrapes := 0
	for time.Now().Before(deadline) {
		scrape(t, ts.URL)
		scrapes++
	}
	close(stop)
	wg.Wait()

	fams := scrape(t, ts.URL)
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
