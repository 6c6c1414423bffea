package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// harness is one coordinator-side stack (store → remote dispatcher →
// manager → HTTP server) plus a protocol client pointed at it.
type harness struct {
	store  *run.Store
	disp   *dispatch.Dispatcher
	mgr    *Manager
	client *Client
	reg    *metrics.Registry
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	h := newStack(t, opts)
	srv := httptest.NewServer(h.mgr.Handler())
	t.Cleanup(srv.Close) // runs before the stack's own cleanup
	h.client = NewClient(srv.URL)
	return h
}

// newStack is the harness without the HTTP server or client, for driving
// the manager's methods directly.
func newStack(t *testing.T, opts Options) *harness {
	t.Helper()
	reg := metrics.NewRegistry()
	store := run.NewMemStore()
	d := dispatch.New(store, dispatch.Options{QueueDepth: 64, Remote: true, Metrics: reg})
	opts.Metrics = reg
	m := NewManager(d, store, opts)
	t.Cleanup(func() {
		m.Close()
		// Most tests leave runs queued or leased that no worker will
		// finish: the drain only has to stop the dispatcher, not wait.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		d.Shutdown(ctx)
	})
	return &harness{store: store, disp: d, mgr: m, reg: reg}
}

func (h *harness) submit(t *testing.T) run.Run {
	t.Helper()
	r, err := h.disp.Submit(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (h *harness) register(t *testing.T, name string) RegisterResponse {
	t.Helper()
	resp, err := h.client.Register(context.Background(), RegisterRequest{
		Name: name, Capacity: 4, GenVersion: gen.CurrentVersion, Workloads: sched.Workloads(),
	})
	if err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
	return resp
}

// metricValue sums one family's samples from the strict exposition parser.
func (h *harness) metricValue(t *testing.T, name string) float64 {
	t.Helper()
	return h.metricSums(t, name)[0]
}

// metricSums sums each named family's samples (0 for an absent family), all
// from one scrape: the collect hooks run once, each under its own layer's
// lock, so the values of one layer's gauges are read at one instant.
func (h *harness) metricSums(t *testing.T, names ...string) []float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("writing metrics: %v", err)
	}
	fams, err := metrics.ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	sums := make([]float64, len(names))
	for i, name := range names {
		if f, ok := fams[name]; ok {
			sums[i] = f.Sum()
		}
	}
	return sums
}

func TestRegisterLeaseCompleteOverHTTP(t *testing.T) {
	h := newHarness(t, Options{})
	reg := h.register(t, "alpha")
	if reg.WorkerID == "" || reg.LeaseTTLMillis != DefaultLeaseTTL.Milliseconds() ||
		reg.HeartbeatMillis != HeartbeatInterval(DefaultLeaseTTL).Milliseconds() {
		t.Fatalf("RegisterResponse = %+v", reg)
	}

	sub := h.submit(t)
	leased, err := h.client.Lease(context.Background(), reg.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if leased.ID != sub.ID || leased.State != run.StateRunning || leased.Worker != reg.WorkerID {
		t.Fatalf("Lease = %+v, want %s running on %s", leased, sub.ID, reg.WorkerID)
	}

	hb, err := h.client.Heartbeat(context.Background(), reg.WorkerID, []string{leased.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Cancel) != 0 || len(hb.Lost) != 0 {
		t.Fatalf("Heartbeat = %+v, want empty", hb)
	}

	fr, err := h.client.Complete(context.Background(), CompleteRequest{
		WorkerID: reg.WorkerID, RunID: leased.ID,
		State: run.StateSucceeded, Result: &run.Result{Match: true, Nodes: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.State != run.StateSucceeded || fr.Worker != reg.WorkerID {
		t.Fatalf("Complete = %+v", fr)
	}
	if got, _ := h.store.Get(sub.ID); got.State != run.StateSucceeded {
		t.Fatalf("store state = %s", got.State)
	}
	if n := h.metricValue(t, "dagd_leases_granted_total"); n != 1 {
		t.Errorf("dagd_leases_granted_total = %v, want 1", n)
	}
	if n := h.metricValue(t, "dagd_workers"); n != 1 {
		t.Errorf("dagd_workers = %v, want 1", n)
	}
}

func TestLeaseNoWorkAndUnknownWorker(t *testing.T) {
	h := newHarness(t, Options{})
	reg := h.register(t, "idle")
	if _, err := h.client.Lease(context.Background(), reg.WorkerID, 50*time.Millisecond); !errors.Is(err, ErrNoWork) {
		t.Errorf("Lease(empty queue) = %v, want ErrNoWork", err)
	}
	if _, err := h.client.Lease(context.Background(), "ghost-1", 50*time.Millisecond); !errors.Is(err, ErrUnregistered) {
		t.Errorf("Lease(unknown) = %v, want ErrUnregistered", err)
	}
	if _, err := h.client.Heartbeat(context.Background(), "ghost-1", nil); !errors.Is(err, ErrUnregistered) {
		t.Errorf("Heartbeat(unknown) = %v, want ErrUnregistered", err)
	}
}

// TestRegisterHandshake pins the register-time build check: a worker is
// admitted only with the coordinator's generator version and its exact
// workload table, and a refusal is a 400 naming the difference. The bodies
// are raw JSON, as a worker built from any revision would send them.
func TestRegisterHandshake(t *testing.T) {
	h := newHarness(t, Options{})
	table := sched.Workloads()
	cases := []struct {
		name string
		body map[string]any
		want []string // substrings of the refusal; nil = admitted
	}{
		{"matching build", map[string]any{"name": "w", "gen_version": gen.CurrentVersion, "workloads": table}, nil},
		{"other gen_version", map[string]any{"name": "w", "gen_version": gen.CurrentVersion + 1, "workloads": table},
			[]string{fmt.Sprint("gen_version ", gen.CurrentVersion+1), fmt.Sprint("gen_version ", gen.CurrentVersion)}},
		{"no gen_version", map[string]any{"name": "w", "workloads": table}, []string{"gen_version", "retired"}},
		{"missing workload", map[string]any{"name": "w", "gen_version": gen.CurrentVersion, "workloads": table[1:]},
			[]string{"missing", table[0]}},
		{"extra workload", map[string]any{"name": "w", "gen_version": gen.CurrentVersion, "workloads": append([]string{"nope"}, table...)},
			[]string{"extra", "nope"}},
		{"capability lists", map[string]any{"name": "w", "workloads": []string{"hashchain"}, "shapes": []string{"chain"}},
			[]string{"retired"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := h.metricValue(t, "dagd_workers")
			var out RegisterResponse
			status, err := h.client.post(context.Background(), "/fleet/v1/register", tc.body, &out)
			registered := h.metricValue(t, "dagd_workers") - before
			if tc.want == nil {
				if err != nil || out.WorkerID == "" || registered != 1 {
					t.Fatalf("register = %d %+v, %v (%v workers added); want admitted", status, out, err, registered)
				}
				return
			}
			if status != http.StatusBadRequest || registered != 0 {
				t.Fatalf("register = %d, %v (%v workers added); want a 400 refusal", status, err, registered)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestCompleteRefusesNonTerminalState pins that a completion report whose
// state is not terminal is the reporter's error, a 400, and leaves the lease
// held for the holder's real report.
func TestCompleteRefusesNonTerminalState(t *testing.T) {
	h := newHarness(t, Options{})
	w := h.register(t, "w")
	sub := h.submit(t)
	if _, err := h.client.Lease(context.Background(), w.WorkerID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body map[string]any
	}{
		{"running", map[string]any{"worker_id": w.WorkerID, "run_id": sub.ID, "state": "running"}},
		{"no state", map[string]any{"worker_id": w.WorkerID, "run_id": sub.ID}}, // decodes as queued
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, err := h.client.post(context.Background(), "/fleet/v1/complete", tc.body, nil)
			if status != http.StatusBadRequest {
				t.Errorf("complete = %d, %v; want 400", status, err)
			}
			if got, _ := h.store.Get(sub.ID); got.State != run.StateRunning {
				t.Fatalf("after a refused report the run is %s, want running", got.State)
			}
		})
	}
	if _, err := h.client.Complete(context.Background(), CompleteRequest{
		WorkerID: w.WorkerID, RunID: sub.ID, State: run.StateSucceeded, Result: &run.Result{Match: true},
	}); err != nil {
		t.Fatalf("the holder's report after the refusals: %v", err)
	}
}

// TestExpiryRequeuesAndRedispatches drives the full worker-death path
// without real time: grant a lease, advance the sweeper past the TTL, and
// watch the run requeue and get re-leased to a second worker.
func TestExpiryRequeuesAndRedispatches(t *testing.T) {
	h := newHarness(t, Options{})
	w1 := h.register(t, "doomed")
	sub := h.submit(t)

	leased, err := h.client.Lease(context.Background(), w1.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// w1 never heartbeats; a sweep past the TTL expires the lease. (The
	// same sweep also lapses idle registrations, so the survivor registers
	// afterwards — exactly what a real worker's 404→re-register loop does.)
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL + time.Second))
	w2 := h.register(t, "survivor")
	if got, _ := h.store.Get(sub.ID); got.State != run.StateQueued || got.Restarts != 1 {
		t.Fatalf("after expiry: %+v, want queued/restarts=1", got)
	}
	if n := h.metricValue(t, "dagd_lease_expiries_total"); n != 1 {
		t.Errorf("dagd_lease_expiries_total = %v, want 1", n)
	}
	if n := h.metricValue(t, "dagd_runs_redispatched_total"); n != 1 {
		t.Errorf("dagd_runs_redispatched_total = %v, want 1", n)
	}

	// The dead worker's late completion is refused.
	if _, err := h.client.Complete(context.Background(), CompleteRequest{
		WorkerID: w1.WorkerID, RunID: leased.ID, State: run.StateSucceeded,
	}); !errors.Is(err, ErrConflict) {
		t.Errorf("late Complete = %v, want ErrConflict", err)
	}

	// The survivor picks the retry up; attribution moves to it.
	retry, err := h.client.Lease(context.Background(), w2.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID != sub.ID || retry.Worker != w2.WorkerID || retry.Restarts != 1 {
		t.Fatalf("re-lease = %+v", retry)
	}
	if _, err := h.client.Complete(context.Background(), CompleteRequest{
		WorkerID: w2.WorkerID, RunID: retry.ID, State: run.StateSucceeded, Result: &run.Result{Match: true},
	}); err != nil {
		t.Fatal(err)
	}

	// w1's registration lapsed in the same sweep (same TTL clock), so its
	// next heartbeat is told to re-register.
	if _, err := h.client.Heartbeat(context.Background(), w1.WorkerID, []string{leased.ID}); !errors.Is(err, ErrUnregistered) {
		t.Errorf("Heartbeat after lapse = %v, want ErrUnregistered", err)
	}
}

// TestPartialHeartbeatLosesUnnamedLease pins the lost-lease relay: a
// worker with capacity for two runs that silently stops naming one of
// them (a wedged executor) keeps its registration alive via the other,
// the unnamed lease expires, and the next heartbeat reports it lost.
func TestPartialHeartbeatLosesUnnamedLease(t *testing.T) {
	h := newHarness(t, Options{})
	w := h.register(t, "wedged")
	a := h.submit(t)
	b := h.submit(t)
	ra, err := h.client.Lease(context.Background(), w.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := h.client.Lease(context.Background(), w.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{ra.ID: true, rb.ID: true}
	if !got[a.ID] || !got[b.ID] {
		t.Fatalf("leased %v, want %s and %s", got, a.ID, b.ID)
	}

	// Only ra is named; rb's lease clock stays at its grant time. The
	// sleep separates the two clocks so a sweep can land between them.
	time.Sleep(100 * time.Millisecond)
	if _, err := h.client.Heartbeat(context.Background(), w.WorkerID, []string{ra.ID}); err != nil {
		t.Fatal(err)
	}
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL - 50*time.Millisecond))
	hb, err := h.client.Heartbeat(context.Background(), w.WorkerID, []string{ra.ID})
	if err != nil {
		t.Fatalf("worker with a live lease pruned: %v", err)
	}
	if len(hb.Lost) != 1 || hb.Lost[0] != rb.ID {
		t.Fatalf("Heartbeat.Lost = %v, want [%s]", hb.Lost, rb.ID)
	}
	if got, _ := h.store.Get(rb.ID); got.State != run.StateQueued || got.Restarts != 1 {
		t.Fatalf("unnamed lease's run = %+v, want queued/restarts=1", got)
	}
}

// TestCancelRelayedOnHeartbeat verifies a coordinator-side cancel reaches
// the worker through its heartbeat and the cancelled completion lands.
func TestCancelRelayedOnHeartbeat(t *testing.T) {
	h := newHarness(t, Options{})
	w := h.register(t, "w")
	sub := h.submit(t)
	leased, err := h.client.Lease(context.Background(), w.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.disp.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	hb, err := h.client.Heartbeat(context.Background(), w.WorkerID, []string{leased.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Cancel) != 1 || hb.Cancel[0] != leased.ID {
		t.Fatalf("Heartbeat.Cancel = %v, want [%s]", hb.Cancel, leased.ID)
	}
	fr, err := h.client.Complete(context.Background(), CompleteRequest{
		WorkerID: w.WorkerID, RunID: leased.ID, State: run.StateCancelled, Error: "cancelled by coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.State != run.StateCancelled {
		t.Fatalf("state = %s, want cancelled", fr.State)
	}
}

// TestExpiryWithPendingCancelFinishesCancelled pins the policy that a
// lease expiring while a cancellation is pending completes the run as
// cancelled instead of restarting work the user asked to stop.
func TestExpiryWithPendingCancelFinishesCancelled(t *testing.T) {
	h := newHarness(t, Options{})
	w := h.register(t, "w")
	sub := h.submit(t)
	if _, err := h.client.Lease(context.Background(), w.WorkerID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := h.disp.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL + time.Second))
	got, _ := h.store.Get(sub.ID)
	if got.State != run.StateCancelled {
		t.Fatalf("state after expiry with pending cancel = %s, want cancelled", got.State)
	}
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 (never requeued)", got.Restarts)
	}
}

// TestHeartbeatExtendsLease verifies heartbeats actually move the expiry:
// a sweep inside the extended window must not expire the lease.
func TestHeartbeatExtendsLease(t *testing.T) {
	h := newHarness(t, Options{})
	w := h.register(t, "w")
	sub := h.submit(t)
	leased, err := h.client.Lease(context.Background(), w.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeat now, then sweep at now + 0.9·TTL: without the heartbeat
	// the original grant would still be alive too, so instead sweep past
	// the grant but inside the heartbeat's window after faking the grant
	// time back.
	if _, err := h.client.Heartbeat(context.Background(), w.WorkerID, []string{leased.ID}); err != nil {
		t.Fatal(err)
	}
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL - time.Second))
	if got, _ := h.store.Get(sub.ID); got.State != run.StateRunning {
		t.Fatalf("state after in-window sweep = %s, want running", got.State)
	}
	// A sweep past the extended window does expire it.
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL + time.Second))
	if got, _ := h.store.Get(sub.ID); got.State != run.StateQueued {
		t.Fatalf("state after late sweep = %s, want queued", got.State)
	}
}

// TestWorkerRegistrationLapses verifies an idle worker with no leases is
// forgotten once its registration window passes, and dagd_workers tracks
// it.
func TestWorkerRegistrationLapses(t *testing.T) {
	h := newHarness(t, Options{})
	h.register(t, "transient")
	if n := h.metricValue(t, "dagd_workers"); n != 1 {
		t.Fatalf("dagd_workers = %v, want 1", n)
	}
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL + time.Second))
	if n := h.metricValue(t, "dagd_workers"); n != 0 {
		t.Errorf("dagd_workers after lapse = %v, want 0", n)
	}
}

// TestCapacityRefusal verifies a worker at capacity gets a conflict
// instead of a lease.
func TestCapacityRefusal(t *testing.T) {
	h := newHarness(t, Options{})
	resp, err := h.client.Register(context.Background(), RegisterRequest{
		Name: "small", Capacity: 1, GenVersion: gen.CurrentVersion, Workloads: sched.Workloads(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.submit(t)
	h.submit(t)
	if _, err := h.client.Lease(context.Background(), resp.WorkerID, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = h.client.Lease(context.Background(), resp.WorkerID, 100*time.Millisecond)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("Lease at capacity = %v, want ErrConflict", err)
	}
}

// TestSweepDuringPollKeepsRegistration pins that a sweep landing while a
// worker long-polls never prunes it: the run the poll returns is held under
// the worker's own registration.
func TestSweepDuringPollKeepsRegistration(t *testing.T) {
	h := newHarness(t, Options{})
	resp := h.register(t, "hc")
	type polled struct {
		r   run.Run
		err error
	}
	poll := make(chan polled, 1)
	go func() {
		r, err := h.client.Lease(context.Background(), resp.WorkerID, 5*time.Second)
		poll <- polled{r, err}
	}()
	waitPolling(t, h.mgr, resp.WorkerID)
	h.mgr.sweepOnce(time.Now().Add(DefaultLeaseTTL + time.Second))

	hc, err := h.disp.Submit(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}, Workload: "hashchain"})
	if err != nil {
		t.Fatal(err)
	}
	got := <-poll
	if got.err != nil || got.r.ID != hc.ID {
		t.Fatalf("poll across the sweep = %+v, %v; want the hashchain run %s", got.r, got.err, hc.ID)
	}
	if _, err := h.client.Complete(context.Background(), CompleteRequest{
		WorkerID: resp.WorkerID, RunID: hc.ID, State: run.StateSucceeded, Result: &run.Result{Match: true},
	}); err != nil {
		t.Fatal(err)
	}
}

// waitPolling blocks until the worker has an acquire in flight.
func waitPolling(t *testing.T, m *Manager, workerID string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		m.mu.Lock()
		w, ok := m.workers[workerID]
		polling := ok && w.polls > 0
		m.mu.Unlock()
		if polling {
			return
		}
	}
	t.Fatalf("worker %s never started polling", workerID)
}
