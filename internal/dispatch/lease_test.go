package dispatch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

func newRemoteDispatcher(t *testing.T, opts Options) (run.Store, *Dispatcher) {
	t.Helper()
	opts.Remote = true
	store := run.NewMemStore()
	d := New(store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return store, d
}

// leasedLen reports how many runs are currently leased to a worker.
func leasedLen(d *Dispatcher) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.leased)
}

func lease(t *testing.T, d *Dispatcher, worker string) run.Run {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := d.Lease(ctx, worker, nil, func(string) {})
	if err != nil {
		t.Fatalf("Lease(%s): %v", worker, err)
	}
	return r
}

func TestLeaseCompleteLifecycle(t *testing.T) {
	store, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
	sub, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}

	r := lease(t, d, "w1")
	if r.ID != sub.ID || r.State != run.StateRunning || r.Worker != "w1" {
		t.Fatalf("Lease = %+v, want %s running on w1", r, sub.ID)
	}
	if r.DispatchedAt == nil || r.StartedAt == nil {
		t.Fatalf("Lease left timestamps unset: %+v", r)
	}
	if leasedLen(d) != 1 {
		t.Fatalf("leased = %d, want 1", leasedLen(d))
	}

	fr, err := d.CompleteLease(r.ID, run.StateSucceeded, "", &run.Result{Match: true, Nodes: 12})
	if err != nil {
		t.Fatal(err)
	}
	if fr.State != run.StateSucceeded || fr.Worker != "w1" {
		t.Fatalf("CompleteLease = %+v, want succeeded on w1", fr)
	}
	if leasedLen(d) != 0 {
		t.Fatalf("leased after complete = %d, want 0", leasedLen(d))
	}
	if got, _ := store.Get(r.ID); got.State != run.StateSucceeded {
		t.Fatalf("store state = %s, want succeeded", got.State)
	}

	// Double completion: the lease is gone.
	if _, err := d.CompleteLease(r.ID, run.StateSucceeded, "", nil); !errors.Is(err, ErrNotLeased) {
		t.Errorf("second CompleteLease = %v, want ErrNotLeased", err)
	}
}

// TestQueueWaitCountsGrantedLeasesOnly: a run cancelled while queued whose
// entry Lease pops before Cancel unlinks it is skipped, not leased, and must
// not leave a sample in dagd_queue_wait_seconds. Cancelling through the
// store leaves the stale entry in place deterministically.
func TestQueueWaitCountsGrantedLeasesOnly(t *testing.T) {
	store, d := newRemoteDispatcher(t, Options{QueueDepth: 8, Metrics: metrics.NewRegistry()})
	victim, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if r := lease(t, d, "w1"); r.ID != follower.ID {
		t.Fatalf("leased %s, want the follower %s (the cancelled run is skipped)", r.ID, follower.ID)
	}
	if n := d.met.queueWait.With(tenant.Default).Count(); n != 1 {
		t.Errorf("dagd_queue_wait_seconds holds %d samples after 1 granted lease", n)
	}
	if _, err := d.CompleteLease(follower.ID, run.StateSucceeded, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteLeaseOutcomes(t *testing.T) {
	cases := []struct {
		name      string
		state     run.State
		errMsg    string
		wantState run.State
	}{
		{"failed", run.StateFailed, "node 3 exploded", run.StateFailed},
		{"cancelled", run.StateCancelled, "", run.StateCancelled},
		{"cancelled_with_msg", run.StateCancelled, "ctx done", run.StateCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
			sub, err := d.Submit(pipelineSpec(5, 2, 0))
			if err != nil {
				t.Fatal(err)
			}
			lease(t, d, "w1")
			fr, err := d.CompleteLease(sub.ID, tc.state, tc.errMsg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fr.State != tc.wantState {
				t.Errorf("state = %s, want %s", fr.State, tc.wantState)
			}
			if tc.errMsg != "" && fr.Error == "" {
				t.Errorf("error text lost: %+v", fr)
			}
			if got, _ := store.Get(sub.ID); got.State != tc.wantState {
				t.Errorf("store state = %s, want %s", got.State, tc.wantState)
			}
		})
	}
}

func TestExpireLeaseRedispatches(t *testing.T) {
	store, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
	sub, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	lease(t, d, "w1")

	r, err := d.ExpireLease(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != run.StateQueued || r.Restarts != 1 || r.Worker != "" {
		t.Fatalf("ExpireLease = %+v, want queued/restarts=1/no worker", r)
	}
	if leasedLen(d) != 0 {
		t.Fatalf("leased after expiry = %d, want 0", leasedLen(d))
	}
	// The dead worker's completion report loses the race.
	if _, err := d.CompleteLease(sub.ID, run.StateSucceeded, "", nil); !errors.Is(err, ErrNotLeased) {
		t.Errorf("CompleteLease after expiry = %v, want ErrNotLeased", err)
	}

	// A surviving worker picks the retry up and completes it.
	r2 := lease(t, d, "w2")
	if r2.ID != sub.ID || r2.Worker != "w2" || r2.Restarts != 1 {
		t.Fatalf("re-lease = %+v, want %s on w2 with restarts=1", r2, sub.ID)
	}
	if _, err := d.CompleteLease(sub.ID, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(sub.ID)
	if got.State != run.StateSucceeded || got.Restarts != 1 || got.Worker != "w2" {
		t.Fatalf("final = %+v, want succeeded/1/w2", got)
	}
}

// TestLeaseWorkloadFilter pins eligibility routing: a worker that only
// supports hashchain must not be handed a pathcount run, and a tenant
// whose queued work is unsupported is skipped rather than blocking.
func TestLeaseWorkloadFilter(t *testing.T) {
	_, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
	pc, err := d.Submit(pipelineSpec(5, 2, 0)) // default workload: pathcount
	if err != nil {
		t.Fatal(err)
	}
	hcSpec := pipelineSpec(5, 2, 0)
	hcSpec.Workload = "hashchain"
	hc, err := d.Submit(hcSpec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := d.Lease(ctx, "hc-only", func(w, _ string) bool { return w == "hashchain" }, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != hc.ID {
		t.Fatalf("hashchain-only worker leased %s, want %s", r.ID, hc.ID)
	}

	// An unrestricted worker gets the remaining pathcount run.
	r2 := lease(t, d, "any")
	if r2.ID != pc.ID {
		t.Fatalf("unrestricted worker leased %s, want %s", r2.ID, pc.ID)
	}
	for _, id := range []string{pc.ID, hc.ID} {
		if _, err := d.CompleteLease(id, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLeaseLongPollTimesOut(t *testing.T) {
	_, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := d.Lease(ctx, "w1", nil, func(string) {})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Lease on empty queue = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("Lease blocked %v past its deadline", time.Since(start))
	}
}

// TestLeaseWakesOnSubmit verifies a parked Lease is woken by a concurrent
// Submit rather than waiting out its long-poll deadline.
func TestLeaseWakesOnSubmit(t *testing.T) {
	_, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
	got := make(chan run.Run, 1)
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r, err := d.Lease(ctx, "w1", nil, func(string) {})
		if err != nil {
			errc <- err
			return
		}
		got <- r
	}()
	time.Sleep(20 * time.Millisecond) // let the lease park
	sub, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.ID != sub.ID {
			t.Fatalf("woken lease got %s, want %s", r.ID, sub.ID)
		}
		if _, err := d.CompleteLease(r.ID, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
			t.Fatal(err)
		}
	case err := <-errc:
		t.Fatalf("Lease: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Lease never woke on Submit")
	}
}

// TestLeaseCancelHook verifies a cancel on a leased run fires the lease's
// hook (the fleet layer relays it to the worker) and that the worker's
// cancelled completion report lands as cancelled.
func TestLeaseCancelHook(t *testing.T) {
	store, d := newRemoteDispatcher(t, Options{QueueDepth: 8})
	sub, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cancelled []string
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.Lease(ctx, "w1", nil, func(id string) {
		mu.Lock()
		cancelled = append(cancelled, id)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	hooked := len(cancelled) == 1 && cancelled[0] == sub.ID
	mu.Unlock()
	if !hooked {
		t.Fatalf("cancel hook saw %v, want [%s]", cancelled, sub.ID)
	}
	// Run stays running until the worker acknowledges.
	if got, _ := store.Get(sub.ID); got.State != run.StateRunning {
		t.Fatalf("state after cancel = %s, want running until worker reports", got.State)
	}
	fr, err := d.CompleteLease(sub.ID, run.StateCancelled, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.State != run.StateCancelled {
		t.Fatalf("final state = %s, want cancelled", fr.State)
	}
}

// TestLeaseDrainServesQueuedWork verifies a drain keeps granting leases
// until the queues are empty: queued work needs workers to finish.
func TestLeaseDrainServesQueuedWork(t *testing.T) {
	store := run.NewMemStore()
	d := New(store, Options{QueueDepth: 8, Remote: true})
	sub, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- d.Shutdown(ctx)
	}()
	// Wait until the drain has begun so the lease below exercises the
	// closed-but-backlogged path.
	for !d.Draining() {
		time.Sleep(time.Millisecond)
	}
	r := lease(t, d, "w1")
	if r.ID != sub.ID {
		t.Fatalf("lease during drain = %s, want %s", r.ID, sub.ID)
	}
	if _, err := d.CompleteLease(r.ID, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	// With the queues empty and closed, further leases are refused.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.Lease(ctx, "w1", nil, func(string) {}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Lease after drain = %v, want ErrShuttingDown", err)
	}
}

// TestLeaseFairnessAcrossTenants pins the DRR weight ratio at the grant
// level: with tenants weighted 2:1 and equal backlogs, grants alternate
// two-to-one.
func TestLeaseFairnessAcrossTenants(t *testing.T) {
	reg := mustRegistry(t,
		tenant.Config{Name: "default", Weight: 1},
		tenant.Config{Name: "heavy", Weight: 2},
	)
	_, d := newRemoteDispatcher(t, Options{QueueDepth: 64, Tenants: reg})
	for i := 0; i < 6; i++ {
		spec := pipelineSpec(5, 2, 0)
		spec.Tenant = "heavy"
		if _, err := d.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Submit(pipelineSpec(5, 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 12; i++ {
		r := lease(t, d, "w1")
		order = append(order, r.Spec.Tenant)
		if _, err := d.CompleteLease(r.ID, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
			t.Fatal(err)
		}
	}
	// One full rotation serves heavy twice and default once, starting from
	// the alphabetically first tenant in the class.
	want := []string{"default", "heavy", "heavy", "default", "heavy", "heavy"}
	for i, tn := range order[:6] {
		if tn != want[i] {
			t.Fatalf("grant order %v, want prefix %v", order, want)
		}
	}
}
