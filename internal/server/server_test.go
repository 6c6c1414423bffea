package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// newTestServer stands up a real Service behind an httptest server.
func newTestServer(t *testing.T, opts core.ServiceOptions) *httptest.Server {
	t.Helper()
	svc, err := core.NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return ts
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if len(raw) > 0 && strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, decoded
}

// errCode extracts the machine-readable code from a structured error
// envelope body, failing the test if the envelope shape is wrong.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response is not a structured error envelope: %v", body)
	}
	code, _ := env["code"].(string)
	if code == "" {
		t.Fatalf("error envelope has no code: %v", body)
	}
	if msg, _ := env["message"].(string); msg == "" {
		t.Fatalf("error envelope has no message: %v", body)
	}
	return code
}

// pollUntil polls GET /v1/runs/{id} until the run state matches want.
func pollUntil(t *testing.T, base, id, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		code, body := doJSON(t, http.MethodGet, base+"/v1/runs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET run %s: status %d", id, code)
		}
		state, _ := body["state"].(string)
		if state == want {
			return body
		}
		switch state {
		case "succeeded", "failed", "cancelled":
			t.Fatalf("run %s reached %s (error %v), want %s", id, state, body["error"], want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return nil
}

func submit(t *testing.T, base, spec string) string {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, base+"/v1/runs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs %s: status %d body %v", spec, code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", body)
	}
	if state, _ := body["state"].(string); state != "queued" {
		t.Fatalf("submitted run state = %q, want queued", state)
	}
	return id
}

// TestEndToEndBothShapes is the acceptance-criteria test: submit random and
// pipeline specs over HTTP, poll to succeeded, and check the parallel
// sink-path count matched the serial reference inside the service.
func TestEndToEndBothShapes(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 2})
	specs := []string{
		`{"shape":"random","nodes":500,"p":0.02,"seed":11,"workers":4}`,
		`{"shape":"pipeline","stages":80,"width":4,"work":10}`,
	}
	for _, spec := range specs {
		id := submit(t, ts.URL, spec)
		body := pollUntil(t, ts.URL, id, "succeeded")
		result, ok := body["result"].(map[string]any)
		if !ok {
			t.Fatalf("succeeded run has no result: %v", body)
		}
		if match, _ := result["match"].(bool); !match {
			t.Errorf("spec %s: match = false", spec)
		}
		if paths, _ := result["sink_paths_mod64"].(float64); paths == 0 {
			t.Errorf("spec %s: zero sink paths", spec)
		}
		if _, hasStart := body["started_at"]; !hasStart {
			t.Errorf("spec %s: missing started_at", spec)
		}
	}
}

// TestEndToEndAllWorkloads submits one run per registered workload over
// HTTP and requires each to pass its serial-vs-parallel self-check — the
// acceptance criterion for workload pluggability.
func TestEndToEndAllWorkloads(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 2})
	for _, name := range sched.Workloads() {
		spec := fmt.Sprintf(`{"shape":"random","nodes":300,"p":0.03,"seed":5,"workload":%q}`, name)
		id := submit(t, ts.URL, spec)
		body := pollUntil(t, ts.URL, id, "succeeded")
		result, ok := body["result"].(map[string]any)
		if !ok {
			t.Fatalf("workload %s: no result: %v", name, body)
		}
		if match, _ := result["match"].(bool); !match {
			t.Errorf("workload %s: match = false", name)
		}
		if got, _ := result["workload"].(string); got != name {
			t.Errorf("result workload = %q, want %q", got, name)
		}
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1, DefaultWorkload: "longestpath"})
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/workloads", "")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/workloads: status %d", code)
	}
	if def, _ := body["default"].(string); def != "longestpath" {
		t.Errorf("default = %v, want longestpath", body["default"])
	}
	names, _ := body["workloads"].([]any)
	if len(names) < 3 {
		t.Fatalf("workloads = %v, want at least the three built-ins", body["workloads"])
	}
	for _, want := range []string{"pathcount", "hashchain", "longestpath"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workloads list missing %q: %v", want, names)
		}
	}
	if n, _ := body["count"].(float64); int(n) != len(names) {
		t.Errorf("count = %v, want %d", body["count"], len(names))
	}
}

func TestCancelInFlightOverHTTP(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	id := submit(t, ts.URL, `{"shape":"pipeline","stages":40000,"width":4,"work":2000}`)
	pollUntil(t, ts.URL, id, "running")
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/cancel", "")
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	pollUntil(t, ts.URL, id, "cancelled")
	// Cancelling a terminal run conflicts.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/cancel", ""); code != http.StatusConflict {
		t.Errorf("cancel terminal run: status %d, want 409", code)
	}
}

func TestListAndFilter(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, ts.URL, fmt.Sprintf(`{"shape":"pipeline","stages":20,"width":2,"seed":%d}`, i)))
	}
	for _, id := range ids {
		pollUntil(t, ts.URL, id, "succeeded")
	}
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/runs", "")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if n, _ := body["count"].(float64); int(n) != 3 {
		t.Errorf("list count = %v, want 3", body["count"])
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs?state=succeeded", "")
	if code != http.StatusOK || int(body["count"].(float64)) != 3 {
		t.Errorf("filtered list = %d %v", code, body)
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs?state=failed", "")
	if code != http.StatusOK || int(body["count"].(float64)) != 0 {
		t.Errorf("failed filter = %d %v", code, body)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/runs?state=bogus", ""); code != http.StatusBadRequest {
		t.Errorf("bogus state filter: status %d, want 400", code)
	}
}

// TestErrorPaths pins the acceptance criterion that every 4xx/5xx carries
// the structured envelope with a documented machine-readable code — even
// the 404/405s the stdlib mux generates for unmatched routes.
func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	cases := []struct {
		method, path, body string
		want               int
		code               string
	}{
		{"GET", "/v1/runs/r999999-deadbeef", "", http.StatusNotFound, "not_found"},
		{"POST", "/v1/runs/r999999-deadbeef/cancel", "", http.StatusNotFound, "not_found"},
		{"POST", "/v1/runs", `not json`, http.StatusBadRequest, "invalid_request"},
		{"POST", "/v1/runs", `{"shape":"random","nodes":1}`, http.StatusBadRequest, "invalid_spec"},
		// An unparseable shape name fails at JSON decode, before spec
		// validation, so it is an invalid_request, not an invalid_spec.
		{"POST", "/v1/runs", `{"shape":"hexagon"}`, http.StatusBadRequest, "invalid_request"},
		{"POST", "/v1/runs", `{"shape":"pipeline","stages":5,"width":2,"workload":"bogus"}`, http.StatusBadRequest, "unknown_workload"},
		{"POST", "/v1/runs", `{"shape":"pipeline","stages":5,"width":2,"bogus_knob":1}`, http.StatusBadRequest, "invalid_request"},
		{"GET", "/v1/runs?state=bogus", "", http.StatusBadRequest, "invalid_request"},
		{"GET", "/no/such/path", "", http.StatusNotFound, "not_found"},
		{"DELETE", "/v1/runs", "", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s: status %d, want %d (body %v)", tc.method, tc.path, code, tc.want, body)
		}
		if got := errCode(t, body); got != tc.code {
			t.Errorf("%s %s: error code %q, want %q", tc.method, tc.path, got, tc.code)
		}
	}
}

// TestExplicitSpecAdmission covers every malformed explicit-graph class:
// each must 400 with code invalid_spec at admission and never reach a
// dispatcher (no run may exist afterwards).
func TestExplicitSpecAdmission(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 1})
	cases := []struct {
		name, spec string
	}{
		{"cycle", `{"shape":"explicit","nodes":3,"edges":[[0,1],[1,2],[2,0]]}`},
		{"self edge", `{"shape":"explicit","nodes":3,"edges":[[1,1]]}`},
		{"duplicate edge", `{"shape":"explicit","nodes":3,"edges":[[0,1],[0,1]]}`},
		{"out of range", `{"shape":"explicit","nodes":3,"edges":[[0,5]]}`},
		{"negative index", `{"shape":"explicit","nodes":3,"edges":[[-1,2]]}`},
		{"zero nodes", `{"shape":"explicit","nodes":0}`},
		{"edges on generated shape", `{"shape":"random","nodes":10,"p":0.1,"edges":[[0,1]]}`},
	}
	for _, tc := range cases {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/runs", tc.spec)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %v)", tc.name, code, body)
			continue
		}
		if got := errCode(t, body); got != "invalid_spec" {
			t.Errorf("%s: error code %q, want invalid_spec", tc.name, got)
		}
	}
	// An over-cap edge list must also be invalid_spec (the length check
	// fires before edge content is examined, so junk filler is fine).
	edges := bytes.Repeat([]byte("[0,1],"), 1<<22+1)
	huge := fmt.Sprintf(`{"shape":"explicit","nodes":2,"edges":[%s]}`, edges[:len(edges)-1])
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/runs", huge)
	if code != http.StatusBadRequest || errCode(t, body) != "invalid_spec" {
		t.Errorf("over-cap edges: status %d code %v, want 400 invalid_spec", code, body)
	}
	// Nothing above may have left a run behind: admission failures never
	// reach the store or a dispatcher.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs", "")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if n, _ := body["count"].(float64); n != 0 {
		t.Errorf("rejected specs left %v runs in the store", body["count"])
	}
}

// TestExplicitEndToEnd submits a client-authored diamond DAG and verifies
// it executes with the serial self-check matching.
func TestExplicitEndToEnd(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	id := submit(t, ts.URL, `{"shape":"explicit","nodes":4,"edges":[[0,1],[0,2],[1,3],[2,3]],"workload":"pathcount"}`)
	body := pollUntil(t, ts.URL, id, "succeeded")
	result, ok := body["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result: %v", body)
	}
	if match, _ := result["match"].(bool); !match {
		t.Error("explicit run: match = false")
	}
	// Diamond has exactly two source→sink paths.
	if paths, _ := result["sink_paths_mod64"].(float64); paths != 2 {
		t.Errorf("diamond sink paths = %v, want 2", result["sink_paths_mod64"])
	}
	if nodes, _ := result["nodes"].(float64); nodes != 4 {
		t.Errorf("nodes = %v, want 4", result["nodes"])
	}
}

func TestUnsupportedMediaType(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	spec := `{"shape":"pipeline","stages":5,"width":2}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain submit: status %d, want 415", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if got := errCode(t, body); got != "unsupported_media_type" {
		t.Errorf("error code %q, want unsupported_media_type", got)
	}
	// application/json with a charset parameter is fine.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(spec))
	req2.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Errorf("application/json;charset submit: status %d, want 202", resp2.StatusCode)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 1, Dispatchers: 1})
	// Occupy the dispatcher and fill the queue with slow runs.
	slow := `{"shape":"pipeline","stages":2000,"width":4,"work":20000}`
	id := submit(t, ts.URL, slow)
	pollUntil(t, ts.URL, id, "running")
	submit(t, ts.URL, slow)
	got429 := false
	for i := 0; i < 20 && !got429; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/runs", slow)
		if got429 = code == http.StatusTooManyRequests; got429 {
			env, _ := body["error"].(map[string]any)
			details, _ := env["details"].(map[string]any)
			if depth, _ := details["queue_depth"].(float64); depth != 1 {
				t.Errorf("429 error.details.queue_depth = %v, want 1", details["queue_depth"])
			}
		}
	}
	if !got429 {
		t.Error("saturated queue never returned 429")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 7, Dispatchers: 2})
	code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if status, _ := body["status"].(string); status != "ok" {
		t.Errorf("healthz status = %v", body["status"])
	}
	stats, ok := body["stats"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing stats: %v", body)
	}
	if depth, _ := stats["queue_depth"].(float64); int(depth) != 7 {
		t.Errorf("queue_depth = %v, want 7", stats["queue_depth"])
	}
}

// TestReadyz covers the liveness/readiness split: /healthz stays 200 while
// the service drains, /readyz flips to 503 shutting_down the moment
// shutdown starts.
func TestReadyz(t *testing.T) {
	svc, err := core.NewService(core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc).Handler())
	defer ts.Close()

	code, body := doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
	if code != http.StatusOK {
		t.Fatalf("readyz before shutdown: status %d (body %v)", code, body)
	}
	if status, _ := body["status"].(string); status != "ok" {
		t.Errorf("readyz status = %v, want ok", body["status"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", code)
	}
	if got := errCode(t, body); got != "shutting_down" {
		t.Errorf("readyz error code %q, want shutting_down", got)
	}
	// Liveness is unchanged: the process can still serve.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", code)
	}
	if status, _ := body["status"].(string); status != "ok" {
		t.Errorf("healthz status while draining = %v, want ok", body["status"])
	}
}

// TestWaitParam covers the ?wait= long-poll: a single GET parks until the
// run finishes instead of requiring a busy-poll loop.
func TestWaitParam(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 2})
	id := submit(t, ts.URL, `{"shape":"pipeline","stages":200,"width":4,"work":100}`)
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"?wait=20s", "")
	if code != http.StatusOK {
		t.Fatalf("wait poll: status %d (body %v)", code, body)
	}
	if state, _ := body["state"].(string); state != "succeeded" {
		t.Errorf("state after ?wait= poll = %q, want succeeded", state)
	}

	// A wait that expires returns the current snapshot, not an error.
	slow := submit(t, ts.URL, `{"shape":"pipeline","stages":40000,"width":4,"work":3000}`)
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+slow+"?wait=50ms", "")
	if code != http.StatusOK {
		t.Fatalf("expired wait: status %d", code)
	}
	if state, _ := body["state"].(string); state != "queued" && state != "running" {
		t.Errorf("expired wait state = %q, want queued|running", state)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/runs/"+slow+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel slow run: status %d", code)
	}

	// Malformed and negative waits are invalid_request.
	for _, bad := range []string{"bogus", "-1s"} {
		code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"?wait="+bad, "")
		if code != http.StatusBadRequest || errCode(t, body) != "invalid_request" {
			t.Errorf("wait=%s: status %d body %v, want 400 invalid_request", bad, code, body)
		}
	}
	// Waiting on a missing run is a plain 404.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs/r999999-deadbeef?wait=1s", "")
	if code != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Errorf("wait on missing run: status %d body %v, want 404 not_found", code, body)
	}
}

// TestListPagination walks ?limit=&cursor= pages and checks the union is
// exactly the full stable-ordered listing.
func TestListPagination(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 16, Dispatchers: 2})
	const total = 7
	for i := 0; i < total; i++ {
		id := submit(t, ts.URL, fmt.Sprintf(`{"shape":"pipeline","stages":10,"width":2,"seed":%d}`, i))
		pollUntil(t, ts.URL, id, "succeeded")
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/runs", "")
	if code != http.StatusOK {
		t.Fatalf("full list: status %d", code)
	}
	full := body["runs"].([]any)
	if len(full) != total {
		t.Fatalf("full list has %d runs, want %d", len(full), total)
	}
	var wantIDs []string
	for _, r := range full {
		wantIDs = append(wantIDs, r.(map[string]any)["id"].(string))
	}

	var gotIDs []string
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v1/runs?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		code, body := doJSON(t, http.MethodGet, url, "")
		if code != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, code)
		}
		runs := body["runs"].([]any)
		if len(runs) > 3 {
			t.Fatalf("page %d has %d runs, limit was 3", pages, len(runs))
		}
		for _, r := range runs {
			gotIDs = append(gotIDs, r.(map[string]any)["id"].(string))
		}
		next, _ := body["next_cursor"].(string)
		if next == "" {
			break
		}
		cursor = next
		if pages++; pages > total {
			t.Fatal("pagination never terminated")
		}
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Errorf("paged IDs %v != full listing %v", gotIDs, wantIDs)
	}

	// Bad cursor and bad limit are invalid_request.
	for _, q := range []string{"cursor=%21%21%21", "limit=0", "limit=-2", "limit=x"} {
		code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/runs?"+q, "")
		if code != http.StatusBadRequest || errCode(t, body) != "invalid_request" {
			t.Errorf("?%s: status %d body %v, want 400 invalid_request", q, code, body)
		}
	}
}

// TestClassifyRequestTooLarge pins that the submit handler's double-%w
// wrapping keeps *http.MaxBytesError reachable through the error chain,
// so oversized bodies classify as 413 request_too_large rather than
// collapsing into 400 invalid_request.
func TestClassifyRequestTooLarge(t *testing.T) {
	wrapped := fmt.Errorf("%w: decoding spec: %w", errInvalidRequest, &http.MaxBytesError{Limit: maxSpecBytes})
	status, code := classify(wrapped)
	if status != http.StatusRequestEntityTooLarge || code != api.CodeRequestTooLarge {
		t.Errorf("classify(MaxBytesError) = %d %s, want 413 request_too_large", status, code)
	}
}

// TestRequestIDHeader covers the logging middleware's ID propagation: a
// generated X-Request-ID on every response, and incoming IDs echoed back.
func TestRequestIDHeader(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid == "" {
		t.Error("response missing generated X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid != "caller-supplied-42" {
		t.Errorf("X-Request-ID = %q, want the caller-supplied value echoed", rid)
	}
}

// TestGracefulServeDrain exercises the serve loop directly: cancel the
// context and verify in-flight runs drain to completion before exit.
func TestGracefulServeDrain(t *testing.T) {
	svc, err := core.NewService(core.ServiceOptions{QueueDepth: 4, Dispatchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(svc)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	ln := newLocalListener(t)
	go func() { done <- srv.serve(ctx, ln, 15*time.Second) }()
	base := "http://" + ln.Addr().String()

	// Wait for the listener to accept.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	id := submit(t, base, `{"shape":"pipeline","stages":20000,"width":4,"work":3000}`)
	pollUntil(t, base, id, "running")
	cancel()
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "closed") {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not return after ctx cancel")
	}
	// The in-flight run must have drained to success, not been dropped.
	r, err := svc.Store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != run.StateSucceeded {
		t.Errorf("drained run state = %s, want succeeded", r.State)
	}
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// doJSONTenant is doJSON with an X-Tenant header, returning the raw
// response for header assertions.
func doJSONTenant(t *testing.T, method, url, tenant, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if len(raw) > 0 && strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp, decoded
}

func specTenant(t *testing.T, body map[string]any) string {
	t.Helper()
	spec, _ := body["spec"].(map[string]any)
	if spec == nil {
		t.Fatalf("run body has no spec: %v", body)
	}
	name, _ := spec["tenant"].(string)
	return name
}

// TestTenantHeaderAttribution: X-Tenant decides attribution — configured
// names stick, unknown or absent ones collapse to "default", and a
// body-smuggled tenant never wins over the header.
func TestTenantHeaderAttribution(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{
		QueueDepth:  8,
		Dispatchers: 1,
		Tenants:     []tenant.Config{{Name: "alpha", Priority: 2}},
	})
	spec := `{"shape":"pipeline","stages":5,"width":2}`

	resp, body := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "alpha", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit as alpha: status %d body %v", resp.StatusCode, body)
	}
	if got := specTenant(t, body); got != "alpha" {
		t.Errorf("attribution = %q, want alpha", got)
	}
	if prio, _ := body["spec"].(map[string]any)["priority"].(float64); prio != 2 {
		t.Errorf("stamped priority = %v, want 2", prio)
	}

	resp, body = doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "never-configured", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit as unknown tenant: status %d", resp.StatusCode)
	}
	if got := specTenant(t, body); got != "default" {
		t.Errorf("unknown tenant attributed to %q, want default", got)
	}

	// The body field is ignored: identity comes from the header only.
	smuggled := `{"shape":"pipeline","stages":5,"width":2,"tenant":"alpha","priority":9}`
	resp, body = doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "", smuggled)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with body tenant: status %d body %v", resp.StatusCode, body)
	}
	if got := specTenant(t, body); got != "default" {
		t.Errorf("body-smuggled tenant won attribution: %q", got)
	}
}

// TestInvalidTenantHeader: syntactically invalid X-Tenant values are a 400
// invalid_request, not silently rebadged as "default".
func TestInvalidTenantHeader(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	spec := `{"shape":"pipeline","stages":5,"width":2}`
	for name, header := range map[string]string{
		"overlong": strings.Repeat("x", 200),
		"tab":      "bad\tname",
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", header, spec)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if code := errCode(t, body); code != string(api.CodeInvalidRequest) {
				t.Errorf("code = %q, want invalid_request", code)
			}
		})
	}
}

// TestTenantRateLimit429RetryAfter: past the tenant's token bucket the API
// answers 429 rate_limited with a Retry-After header and retry details —
// and other tenants keep submitting.
func TestTenantRateLimit429RetryAfter(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{
		QueueDepth:  8,
		Dispatchers: 1,
		Tenants:     []tenant.Config{{Name: "limited", SubmitRate: 0.01, SubmitBurst: 1}},
	})
	spec := `{"shape":"pipeline","stages":5,"width":2}`

	resp, body := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "limited", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit within burst: status %d body %v", resp.StatusCode, body)
	}
	resp, body = doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "limited", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: status %d, want 429", resp.StatusCode)
	}
	if code := errCode(t, body); code != string(api.CodeRateLimited) {
		t.Errorf("code = %q, want rate_limited", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want a positive delay-seconds value", ra)
	}
	details, _ := body["error"].(map[string]any)["details"].(map[string]any)
	if details["tenant"] != "limited" {
		t.Errorf("details.tenant = %v, want limited", details["tenant"])
	}
	if ms, _ := details["retry_after_ms"].(float64); ms <= 0 {
		t.Errorf("details.retry_after_ms = %v, want positive", details["retry_after_ms"])
	}

	// Another tenant is unaffected by the limited one's bucket.
	resp, _ = doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("default-tenant submit during rate limiting: status %d", resp.StatusCode)
	}
}

// TestTenantQuota429: a tenant at its queue-depth quota gets 429
// quota_exceeded (with Retry-After) while other tenants still submit.
func TestTenantQuota429(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{
		QueueDepth:  64,
		Dispatchers: 1,
		Tenants:     []tenant.Config{{Name: "small", MaxQueueDepth: 1}},
	})
	// Occupy the single dispatcher so submissions stay queued.
	plugID := submit(t, ts.URL, `{"shape":"pipeline","stages":40000,"width":4,"work":2000}`)
	pollUntil(t, ts.URL, plugID, "running")
	defer doJSON(t, http.MethodPost, ts.URL+"/v1/runs/"+plugID+"/cancel", "")

	spec := `{"shape":"pipeline","stages":5,"width":2}`
	resp, _ := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "small", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit within quota: status %d", resp.StatusCode)
	}
	resp, body := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "small", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if code := errCode(t, body); code != string(api.CodeQuotaExceeded) {
		t.Errorf("code = %q, want quota_exceeded", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 quota_exceeded carries no Retry-After header")
	}
	resp, _ = doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("default-tenant submit while another tenant is at quota: status %d", resp.StatusCode)
	}
}

// TestListTenantFilter: ?tenant= narrows the listing to one tenant's runs
// and composes with ?state=.
func TestListTenantFilter(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{
		QueueDepth:  16,
		Dispatchers: 2,
		Tenants:     []tenant.Config{{Name: "alpha"}, {Name: "beta"}},
	})
	spec := `{"shape":"pipeline","stages":5,"width":2}`
	var alphaIDs []string
	for i := 0; i < 3; i++ {
		resp, body := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "alpha", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatal("alpha submit failed")
		}
		alphaIDs = append(alphaIDs, body["id"].(string))
	}
	for i := 0; i < 2; i++ {
		if resp, _ := doJSONTenant(t, http.MethodPost, ts.URL+"/v1/runs", "beta", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatal("beta submit failed")
		}
	}
	for _, id := range alphaIDs {
		pollUntil(t, ts.URL, id, "succeeded")
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/runs?tenant=alpha", "")
	if code != http.StatusOK {
		t.Fatalf("list?tenant=alpha: status %d", code)
	}
	runs, _ := body["runs"].([]any)
	if len(runs) != 3 {
		t.Fatalf("tenant=alpha listed %d runs, want 3", len(runs))
	}
	for _, rr := range runs {
		spec, _ := rr.(map[string]any)["spec"].(map[string]any)
		if spec["tenant"] != "alpha" {
			t.Errorf("tenant=alpha listing leaked a %v run", spec["tenant"])
		}
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs?tenant=alpha&state=succeeded", "")
	if code != http.StatusOK {
		t.Fatalf("combined filter: status %d", code)
	}
	if n, _ := body["count"].(float64); int(n) != 3 {
		t.Errorf("tenant+state filter count = %v, want 3", n)
	}
	// An unknown tenant filter is an empty page, not an error.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs?tenant=nobody", "")
	if code != http.StatusOK {
		t.Fatalf("list?tenant=nobody: status %d", code)
	}
	if n, _ := body["count"].(float64); n != 0 {
		t.Errorf("unknown tenant filter count = %v, want 0", n)
	}
}

// TestHealthzTenantStats: /healthz exposes per-tenant queue stats.
func TestHealthzTenantStats(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{
		QueueDepth:  4,
		Dispatchers: 1,
		Tenants:     []tenant.Config{{Name: "alpha", Weight: 3}},
	})
	code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	stats, _ := body["stats"].(map[string]any)
	tenants, _ := stats["tenants"].(map[string]any)
	if tenants == nil {
		t.Fatalf("healthz stats carry no tenants map: %v", stats)
	}
	alpha, _ := tenants["alpha"].(map[string]any)
	if alpha == nil || alpha["weight"].(float64) != 3 {
		t.Errorf("tenants.alpha = %v, want weight 3", tenants["alpha"])
	}
	if _, ok := tenants["default"]; !ok {
		t.Error("tenants map missing the catch-all default")
	}
}
