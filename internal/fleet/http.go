package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// The worker API, all POST + JSON under /fleet/v1/. It is an internal
// coordinator↔worker protocol — separate listener from the public v1 API,
// simpler error shape ({"error": "..."} plus status code semantics):
//
//	register   admit a worker whose build matches → worker ID + lease clocks
//	lease      long-poll one ready run (204 when the poll drains empty)
//	heartbeat  extend leases → pending cancels + lost leases
//	complete   report a terminal outcome (400 for a non-terminal state,
//	           409 when the lease was lost)

// RegisterRequest admits a worker. GenVersion and Workloads are its build
// identity — gen.CurrentVersion and sched.Workloads() as compiled into it —
// and must equal the coordinator's.
type RegisterRequest struct {
	Name       string   `json:"name,omitempty"`
	Capacity   int      `json:"capacity,omitempty"`
	GenVersion int      `json:"gen_version,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
}

// RegisterResponse carries the worker's identity and the coordinator's
// lease clocks, so clocks are configured in exactly one place.
type RegisterResponse struct {
	WorkerID        string `json:"worker_id"`
	LeaseTTLMillis  int64  `json:"lease_ttl_ms"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
}

// LeaseRequest long-polls for one run; WaitMillis bounds the poll (the
// server clamps it to [0, maxLeaseWait]).
type LeaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
}

// LeaseResponse carries the granted run.
type LeaseResponse struct {
	Run run.Run `json:"run"`
}

// HeartbeatRequest extends the leases of every run the worker still holds.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Running  []string `json:"running,omitempty"`
}

// HeartbeatResponse relays coordinator-side decisions: Cancel lists runs
// the worker must abort and report as cancelled; Lost lists runs whose
// leases expired coordinator-side — the worker aborts them and reports
// nothing (the re-dispatched attempt owns them now).
type HeartbeatResponse struct {
	Cancel []string `json:"cancel,omitempty"`
	Lost   []string `json:"lost,omitempty"`
}

// CompleteRequest reports one run's terminal outcome.
type CompleteRequest struct {
	WorkerID string      `json:"worker_id"`
	RunID    string      `json:"run_id"`
	State    run.State   `json:"state"`
	Error    string      `json:"error,omitempty"`
	Result   *run.Result `json:"result,omitempty"`
}

// CompleteResponse echoes the recorded terminal snapshot.
type CompleteResponse struct {
	Run run.Run `json:"run"`
}

// maxLeaseWait caps a lease long-poll so a dead client cannot pin a
// handler goroutine forever; workers simply poll again.
const maxLeaseWait = 30 * time.Second

// defaultLeaseWait applies when a lease request names no wait.
const defaultLeaseWait = 10 * time.Second

// Handler returns the worker API as an http.Handler rooted at /fleet/v1/.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", m.handleRegister)
	mux.HandleFunc("POST /fleet/v1/lease", m.handleLease)
	mux.HandleFunc("POST /fleet/v1/heartbeat", m.handleHeartbeat)
	mux.HandleFunc("POST /fleet/v1/complete", m.handleComplete)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeInto reads a bounded JSON body. Worker requests are tiny; 1MB of
// headroom covers the largest plausible running-ID list.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

func (m *Manager) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := checkBuild(req.GenVersion, req.Workloads); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := m.register(req.Name, req.Capacity)
	writeJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:        id,
		LeaseTTLMillis:  m.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: HeartbeatInterval(m.opts.LeaseTTL).Milliseconds(),
	})
}

func (m *Manager) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	wait := defaultLeaseWait
	if req.WaitMillis > 0 {
		wait = time.Duration(req.WaitMillis) * time.Millisecond
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()

	granted, err := m.acquire(ctx, req.WorkerID)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, LeaseResponse{Run: granted})
	case errors.Is(err, errUnknownWorker):
		writeError(w, http.StatusNotFound, "unknown worker %q: register first", req.WorkerID)
	case errors.Is(err, errAtCapacity):
		writeError(w, http.StatusConflict, "worker %q is at capacity", req.WorkerID)
	case errors.Is(err, dispatch.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// Nothing became ready within the poll window.
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (m *Manager) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	cancel, lost, ok := m.heartbeat(req.WorkerID, req.Running)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown worker %q: register first", req.WorkerID)
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Cancel: cancel, Lost: lost})
}

func (m *Manager) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	fr, err := m.complete(req.WorkerID, req.RunID, req.State, req.Error, req.Result)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, CompleteResponse{Run: fr})
	case errors.Is(err, errNonTerminal):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, dispatch.ErrNotLeased):
		writeError(w, http.StatusConflict, "run %q is not leased to worker %q (lease expired?)", req.RunID, req.WorkerID)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// Client is the worker side of the protocol, used by cmd/dagworker (and
// the fleet tests). Zero-value HTTP client semantics with a sane timeout;
// lease polls get their own per-call deadline headroom.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a Client for a coordinator's fleet listener,
// e.g. "http://127.0.0.1:9091".
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{Timeout: maxLeaseWait + 15*time.Second}}
}

// ErrConflict is returned by Complete when the coordinator refused the
// report because the lease is gone (expired and re-dispatched); the worker
// must discard the result.
var ErrConflict = errors.New("fleet: lease conflict")

// ErrUnregistered is returned when the coordinator does not know this
// worker ID — after a coordinator restart — and the worker must
// re-register.
var ErrUnregistered = errors.New("fleet: worker not registered")

// ErrDraining is returned by Lease when the coordinator is shutting down.
var ErrDraining = errors.New("fleet: coordinator draining")

// ErrRefused is returned when the coordinator answered 400: the request is
// one it will never accept, so retrying it is pointless — at register, the
// worker's build differs from the coordinator's.
var ErrRefused = errors.New("fleet: refused")

// ErrNoWork is returned by Lease when the long poll elapsed with nothing
// ready.
var ErrNoWork = errors.New("fleet: no work available")

func (c *Client) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		return resp.StatusCode, mapStatus(resp.StatusCode, eb.Error)
	}
	return resp.StatusCode, nil
}

func mapStatus(status int, msg string) error {
	base := fmt.Errorf("fleet: http %d: %s", status, msg)
	switch status {
	case http.StatusBadRequest:
		return fmt.Errorf("%w (%s)", ErrRefused, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrUnregistered, msg)
	case http.StatusConflict:
		return fmt.Errorf("%w (%s)", ErrConflict, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w (%s)", ErrDraining, msg)
	}
	return base
}

// Register admits the worker and returns its assigned identity and the
// coordinator's lease clocks. ErrRefused means the coordinator will never
// admit this build.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var out RegisterResponse
	_, err := c.post(ctx, "/fleet/v1/register", req, &out)
	return out, err
}

// Lease long-polls for one run. ErrNoWork means the poll drained empty;
// ErrDraining means stop polling and exit; ErrUnregistered means
// re-register first.
func (c *Client) Lease(ctx context.Context, workerID string, wait time.Duration) (run.Run, error) {
	var out LeaseResponse
	status, err := c.post(ctx, "/fleet/v1/lease",
		LeaseRequest{WorkerID: workerID, WaitMillis: wait.Milliseconds()}, &out)
	if err != nil {
		return run.Run{}, err
	}
	if status == http.StatusNoContent {
		return run.Run{}, ErrNoWork
	}
	return out.Run, nil
}

// Heartbeat extends the leases of the named runs.
func (c *Client) Heartbeat(ctx context.Context, workerID string, running []string) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	_, err := c.post(ctx, "/fleet/v1/heartbeat",
		HeartbeatRequest{WorkerID: workerID, Running: running}, &out)
	return out, err
}

// Complete reports a run's terminal outcome. ErrConflict means the lease
// was lost and the report discarded.
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (run.Run, error) {
	var out CompleteResponse
	_, err := c.post(ctx, "/fleet/v1/complete", req, &out)
	return out.Run, err
}
