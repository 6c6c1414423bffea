package server

import (
	"net/http"
	"strings"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
)

// TestOverflowSpecAdmission is the server half of the admission-bypass
// regression: the pipeline cap check used to compute stages*width+2 in int,
// which wraps negative for stages=width=3037000500 and sailed past
// MaxNodes. The spec must 400 as invalid_spec and leave nothing stored.
func TestOverflowSpecAdmission(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 1})
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/runs",
		`{"shape":"pipeline","stages":3037000500,"width":3037000500}`)
	if code != http.StatusBadRequest {
		t.Fatalf("overflow spec: status %d, want 400 (body %v)", code, body)
	}
	if got := errCode(t, body); got != "invalid_spec" {
		t.Errorf("overflow spec: error code %q, want invalid_spec", got)
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/runs", "")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if n, _ := body["count"].(float64); n != 0 {
		t.Errorf("rejected overflow spec left %v runs in the store", body["count"])
	}
}

// TestScenarioShapesEndToEnd submits one run per new scenario shape/knob
// through the full service: a deep chain (the ≥500k-span acceptance bar), a
// parallel_work pipeline, and a small dynamic run, unsplit and with
// parallel_work. All must verify.
func TestScenarioShapesEndToEnd(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 2})
	cases := []struct {
		name, spec string
		minDepth   float64
	}{
		{"deep chain", `{"shape":"chain","nodes":500001}`, 500000},
		{"parallel work", `{"shape":"pipeline","stages":10,"width":2,"work":65536,"parallel_work":true,"workload":"hashchain"}`, 0},
		{"dynamic", `{"shape":"dynamic","stages":8,"width":3,"p":0.3,"seed":11}`, 8},
		{"dynamic parallel work", `{"shape":"dynamic","stages":6,"width":2,"p":0.3,"seed":11,"work":65536,"parallel_work":true,"workload":"hashchain"}`, 6},
	}
	for _, tc := range cases {
		id := submit(t, ts.URL, tc.spec)
		body := pollUntil(t, ts.URL, id, "succeeded")
		result, ok := body["result"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no result: %v", tc.name, body)
		}
		if match, _ := result["match"].(bool); !match {
			t.Errorf("%s: match = false", tc.name)
		}
		if depth, _ := result["depth"].(float64); depth < tc.minDepth {
			t.Errorf("%s: depth = %v, want >= %v", tc.name, depth, tc.minDepth)
		}
	}
}

// TestDynamicGrowthBoundEndToEnd pins fail-closed behavior through the
// service: a dynamic spec whose expansion exceeds MaxNodes passes admission
// (final size is unknowable there) but the run fails at the growth bound.
func TestDynamicGrowthBoundEndToEnd(t *testing.T) {
	ts := newTestServer(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	id := submit(t, ts.URL, `{"shape":"dynamic","stages":20,"width":4,"seed":7}`)
	body := pollUntil(t, ts.URL, id, "failed")
	errMsg, _ := body["error"].(string)
	if !strings.Contains(errMsg, "growth bound") {
		t.Errorf("failed run error = %q, want it to mention the growth bound", errMsg)
	}
}
