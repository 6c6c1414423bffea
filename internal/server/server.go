// Package server exposes the dagd run service over a JSON HTTP API:
//
//	POST /v1/runs             submit a run spec (generated or explicit DAG), returns 202 + the queued run
//	GET  /v1/runs             list runs (?state=/?tenant= filters, ?limit=&cursor= pagination)
//	GET  /v1/runs/{id}        poll one run's status/result (?wait=1s long-polls until terminal)
//	POST /v1/runs/{id}/cancel request cancellation
//	GET  /v1/workloads        list built-in workloads + the service default
//	GET  /healthz             liveness; reads no state (stays 200 while draining)
//	GET  /readyz              readiness; 503 shutting_down once shutdown starts
//	GET  /metrics             Prometheus text exposition of every dagd metric
//
// Submissions are attributed to the tenant named by the X-Tenant header
// (absent/empty = the catch-all "default" tenant); per-tenant quotas and
// rate limits reject with 429 + a computed Retry-After header.
//
// Every 4xx/5xx response carries the structured envelope defined in
// pkg/api: {"error":{"code":"...","message":"...","details":{...}}}. The
// sentinel→code/status mapping lives in one table (errors.go): 400
// invalid_request/invalid_spec/unknown_workload, 404 not_found, 405
// method_not_allowed, 409 run_terminal, 413 request_too_large, 415
// unsupported_media_type, 429 queue_full/rate_limited/quota_exceeded,
// 503 shutting_down, 500 internal.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// maxSpecBytes bounds the POST /v1/runs body. Explicit specs carry literal
// edge lists (up to run.MaxEdges ≈ 4M edges at ~10 JSON bytes each), so
// the bound is sized for those rather than the tiny generated-shape specs.
// This is a per-request bound; aggregate exposure is limited by the queue
// depth (-queue, each queued run holds its edge list until execution) and
// by terminal snapshots dropping their edge lists (run.Store.Finish) — operators
// serving untrusted clients should size -queue accordingly.
const maxSpecBytes = 64 << 20

// maxWait caps the ?wait= long-poll duration per request; clients that
// need longer simply re-issue the poll (pkg/client's Wait does).
const maxWait = 30 * time.Second

// Server is the HTTP front end for a core.Service.
type Server struct {
	svc  *core.Service
	mux  *http.ServeMux
	logf func(format string, args ...any)

	httpRequests *metrics.CounterVec   // dagd_http_requests_total{route,method,status}
	httpLatency  *metrics.HistogramVec // dagd_http_request_seconds{route,method}
	httpInflight *metrics.Gauge        // dagd_http_inflight_requests
}

// New returns a Server routing to svc.
func New(svc *core.Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), logf: log.Printf}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	reg := svc.Metrics()
	s.httpRequests = reg.CounterVec("dagd_http_requests_total",
		"HTTP requests served, by normalized route, method, and status code.",
		"route", "method", "status")
	s.httpLatency = reg.HistogramVec("dagd_http_request_seconds",
		"HTTP request latency by normalized route and method. ?wait= long-polls land here too, so the upper buckets reach the 30s poll cap.",
		[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}, "route", "method")
	s.httpInflight = reg.Gauge("dagd_http_inflight_requests",
		"HTTP requests currently being served.")
	return s
}

// MetricsHandler returns the bare /metrics handler for mounting on a
// second listener (dagd's -debug-addr), outside the request-logging and
// instrumentation middleware so debug scrapes don't skew the HTTP series.
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

// handleMetrics renders every registered family in Prometheus text
// exposition format v0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.svc.Metrics().WritePrometheus(w); err != nil {
		s.logf("dagd: writing /metrics: %v", err)
	}
}

// Handler returns the full handler chain — request logging and
// envelope-normalizing middleware around the route mux — for tests and
// embedding.
func (s *Server) Handler() http.Handler { return s.withRequestLog(s.mux) }

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully: flip readiness, drain the run service so in-flight runs
// finish (or are force-cancelled once drainTimeout expires), then close
// the HTTP server.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("dagd: listening on %s", ln.Addr())
	return s.serve(ctx, ln, drainTimeout)
}

func (s *Server) serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failed outright; nothing to drain.
		return err
	case <-ctx.Done():
	}

	log.Printf("dagd: shutting down, draining for up to %v", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the run service while still serving HTTP: /readyz has flipped
	// to 503 and new submissions are refused, but clients can keep polling
	// (including ?wait= long-polls) to observe their runs' final states.
	svcErr := s.svc.Shutdown(drainCtx)
	shutdownErr := httpSrv.Shutdown(drainCtx)
	if shutdownErr == nil {
		shutdownErr = svcErr
	}
	<-errc // Serve has returned http.ErrServerClosed by now
	return shutdownErr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// An absent Content-Type is tolerated (Go's http client omits it for
	// bare byte-reader bodies), but a present one must declare JSON. Note
	// curl's bare -d sends application/x-www-form-urlencoded and is
	// rejected — pass -H 'Content-Type: application/json'.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
			writeError(w, fmt.Errorf("%w: Content-Type %q (want application/json)",
				errUnsupportedMediaType, ct), nil)
			return
		}
	}
	tenantName, err := tenantOf(r)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errInvalidRequest, err), nil)
		return
	}
	var spec run.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		// Both errors are wrapped so classify can still surface an
		// *http.MaxBytesError as 413 request_too_large.
		writeError(w, fmt.Errorf("%w: decoding spec: %w", errInvalidRequest, err), nil)
		return
	}
	// Identity comes from the header, never the body: a spec-carried tenant
	// (or priority) would let any client bill its runs to someone else's
	// quota. The dispatcher overwrites both with the resolved values.
	spec.Tenant = tenantName
	spec.Priority = 0
	rr, err := s.svc.Dispatcher.Submit(spec)
	if err != nil {
		var details map[string]any
		if errors.Is(err, dispatch.ErrQueueFull) {
			details = map[string]any{"queue_depth": s.svc.Dispatcher.QueueDepth()}
		}
		writeError(w, err, details)
		return
	}
	writeJSON(w, http.StatusAccepted, rr)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	runs := s.svc.Store.List() // sorted by (CreatedAt, ID) — the pagination order
	if want := q.Get("state"); want != "" {
		state, err := run.ParseState(want)
		if err != nil {
			writeError(w, fmt.Errorf("%w: %v", errInvalidRequest, err), nil)
			return
		}
		filtered := runs[:0]
		for _, rr := range runs {
			if rr.State == state {
				filtered = append(filtered, rr)
			}
		}
		runs = filtered
	}
	if want := q.Get("tenant"); want != "" {
		// Exact match on the stored attribution. "default" also matches
		// legacy WAL records, which replay with that tenant stamped.
		filtered := runs[:0]
		for _, rr := range runs {
			if rr.Spec.Tenant == want {
				filtered = append(filtered, rr)
			}
		}
		runs = filtered
	}
	if cur := q.Get("cursor"); cur != "" {
		afterNanos, afterID, err := decodeCursor(cur)
		if err != nil {
			writeError(w, fmt.Errorf("%w: %v", errInvalidRequest, err), nil)
			return
		}
		// Keep only runs strictly after the cursor position, compared with
		// the same shared comparator that orders List — so a cursor walk
		// can never drift from the listing order. Position-based cursors
		// survive eviction: a deleted run simply no longer appears, without
		// shifting later pages the way offset pagination would.
		kept := runs[:0]
		for _, rr := range runs {
			if run.CompareToCursor(rr, afterNanos, afterID) > 0 {
				kept = append(kept, rr)
			}
		}
		runs = kept
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeError(w, fmt.Errorf("%w: limit must be a positive integer, got %q",
				errInvalidRequest, ls), nil)
			return
		}
		limit = n
	}
	next := ""
	if limit > 0 && len(runs) > limit {
		runs = runs[:limit]
		last := runs[len(runs)-1]
		next = encodeCursor(last.CreatedAt.UnixNano(), last.ID)
	}
	if runs == nil {
		runs = []run.Run{}
	}
	resp := map[string]any{"runs": runs, "count": len(runs)}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

// encodeCursor packs a (CreatedAt, ID) position into an opaque URL-safe
// token.
func encodeCursor(nanos int64, id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%d|%s", nanos, id)))
}

func decodeCursor(s string) (nanos int64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, "", fmt.Errorf("malformed cursor")
	}
	sep := strings.IndexByte(string(raw), '|')
	if sep < 0 {
		return 0, "", fmt.Errorf("malformed cursor")
	}
	nanos, err = strconv.ParseInt(string(raw[:sep]), 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("malformed cursor")
	}
	return nanos, string(raw[sep+1:]), nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			writeError(w, fmt.Errorf("%w: wait must be a non-negative duration (e.g. 1s), got %q",
				errInvalidRequest, ws), nil)
			return
		}
		if d > maxWait {
			d = maxWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		rr, err := s.svc.Store.Await(ctx, id)
		if err != nil {
			writeError(w, err, map[string]any{"id": id})
			return
		}
		writeJSON(w, http.StatusOK, rr)
		return
	}
	rr, err := s.svc.Store.Get(id)
	if err != nil {
		writeError(w, err, map[string]any{"id": id})
		return
	}
	writeJSON(w, http.StatusOK, rr)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rr, err := s.svc.Dispatcher.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err, map[string]any{"id": r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, rr)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	names := sched.Workloads()
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads": names,
		"count":     len(names),
		"default":   sched.DefaultWorkload,
	})
}

// handleHealth is the liveness probe: it answers 200 "ok" for as long as
// the process can serve at all, including while draining — restarting a
// draining process would only lose in-flight runs. It reads no state; the
// service's load is at GET /metrics.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is the readiness probe: once shutdown begins — the store's
// queues stop admitting work — it answers 503 with code shutting_down
// so load balancers route new submissions elsewhere, while liveness stays
// green.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.svc.Store.Draining() {
		writeError(w, dispatch.ErrShuttingDown, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; all we can do is log.
		log.Printf("dagd: encoding response: %v", err)
	}
}
