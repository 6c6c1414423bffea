package dispatch

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

func newDispatcher(t *testing.T, opts Options) (*run.Store, *Dispatcher) {
	t.Helper()
	store := run.NewMemStore()
	d := New(store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return store, d
}

// tenantLoad is one tenant's queued runs and in-flight slots.
type tenantLoad struct{ queued, inflight int }

// loads reads every tenant's queue length and in-flight slots off the
// store's queues in one acquisition: the quantities the collect hook
// renders as dagd_queue_depth and dagd_inflight_runs.
func loads(d *Dispatcher) map[string]tenantLoad {
	out := map[string]tenantLoad{}
	d.store.View(func() {
		for name, tq := range d.queues {
			out[name] = tenantLoad{queued: tq.q.Len(), inflight: tq.q.Running()}
		}
	})
	return out
}

// queueLen reports how many runs wait in the queues, summed over every
// tenant.
func queueLen(d *Dispatcher) int {
	n := 0
	for _, l := range loads(d) {
		n += l.queued
	}
	return n
}

// waitForState polls until the run reaches want or the deadline passes.
func waitForState(t *testing.T, store *run.Store, id string, want run.State) run.Run {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		r, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.State == want {
			return r
		}
		if r.State.Terminal() {
			t.Fatalf("run %s reached terminal state %s (error %q), want %s", id, r.State, r.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %s", id, want)
	return run.Run{}
}

func pipelineSpec(stages, width, work int) run.Spec {
	return run.Spec{
		Config: gen.Config{Shape: gen.Pipeline, Stages: stages, Width: width},
		Work:   work,
	}
}

// TestDefaultWorkloadStamped verifies the default workload,
// pathcount, is applied at admission: the stored spec and the finished
// result both carry it, and an explicit workload in the spec still wins.
func TestDefaultWorkloadStamped(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 8, Dispatchers: 1})

	r, err := d.Submit(pipelineSpec(20, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Workload != "pathcount" {
		t.Errorf("stored spec workload = %q, want the default pathcount", r.Spec.Workload)
	}
	got := waitForState(t, store, r.ID, run.StateSucceeded)
	if got.Result.Workload != "pathcount" {
		t.Errorf("result workload = %q, want pathcount", got.Result.Workload)
	}

	explicit := pipelineSpec(20, 2, 0)
	explicit.Workload = "longestpath"
	r2, err := d.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Spec.Workload != "longestpath" {
		t.Errorf("explicit workload overridden to %q", r2.Spec.Workload)
	}
	waitForState(t, store, r2.ID, run.StateSucceeded)
}

// TestUnknownWorkloadFailsSubmit: a spec naming no built-in workload is
// refused at admission, not deep inside a dispatcher goroutine, and
// leaves no run behind.
func TestUnknownWorkloadFailsSubmit(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 4, Dispatchers: 1})
	spec := pipelineSpec(5, 2, 0)
	spec.Workload = "no-such"
	if _, err := d.Submit(spec); !errors.Is(err, run.ErrUnknownWorkload) {
		t.Errorf("Submit naming an unknown workload = %v, want ErrUnknownWorkload", err)
	}
	if n := store.Len(); n != 0 {
		t.Errorf("store holds %d runs after the refusal, want 0", n)
	}
}

// TestGenVersionStamped pins the generator version at admission: an absent
// gen_version is stored as the current one and executes its graph, and the
// retired 1 is refused with no run stored. (Versions nobody defined are
// TestErrorPaths' 400s.)
func TestGenVersionStamped(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 8, Dispatchers: 1})
	random := func(version int) run.Spec {
		return run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 300, EdgeProb: 0.02, Seed: 5, GenVersion: version}}
	}
	if _, err := d.Submit(random(1)); !errors.Is(err, run.ErrInvalidSpec) {
		t.Fatalf("gen_version 1: Submit = %v, want ErrInvalidSpec", err)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("gen_version 1 refused but %d runs stored", n)
	}
	want, err := run.Execute(context.Background(), random(gen.CurrentVersion), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, submitted := range []int{0, gen.CurrentVersion} {
		r, err := d.Submit(random(submitted))
		if err != nil {
			t.Fatal(err)
		}
		if r.Spec.GenVersion != gen.CurrentVersion {
			t.Errorf("gen_version %d stored as %d, want %d", submitted, r.Spec.GenVersion, gen.CurrentVersion)
		}
		got := waitForState(t, store, r.ID, run.StateSucceeded)
		if got.Result.SinkPaths != want.SinkPaths {
			t.Errorf("gen_version %d executed to sink %d, want v%d's %d", submitted, got.Result.SinkPaths, gen.CurrentVersion, want.SinkPaths)
		}
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	_, d := newDispatcher(t, Options{QueueDepth: 2, Dispatchers: 1})
	if _, err := d.Submit(run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 1}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 1, Dispatchers: 1})
	// Saturate the single dispatcher with a slow run, then the depth-1 queue.
	slow := pipelineSpec(500, 4, 50000)
	first, err := d.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, store, first.ID, run.StateRunning)
	if _, err := d.Submit(slow); err != nil {
		t.Fatalf("queueing one run behind an in-flight one: %v", err)
	}
	// Queue now holds one entry; the next submit must fail fast.
	overflow := 0
	for i := 0; i < 20; i++ {
		if _, err := d.Submit(pipelineSpec(5, 2, 0)); errors.Is(err, ErrQueueFull) {
			overflow++
		}
	}
	if overflow == 0 {
		t.Fatal("no submission hit ErrQueueFull with a saturated depth-1 queue")
	}
	// Rejected submissions must not leak store entries: first + queued one
	// plus any that got in after the dispatcher advanced.
	if n := store.Len(); n > 3 {
		t.Errorf("store holds %d runs after rejections, want <= 3", n)
	}
}

func TestCancelQueuedFreesSlot(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 1, Dispatchers: 1})
	head, err := d.Submit(pipelineSpec(2000, 4, 20000))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, store, head.ID, run.StateRunning)
	queued, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(pipelineSpec(5, 2, 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if _, err := d.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if n := queueLen(d); n != 0 {
		t.Fatalf("QueueLen after cancelling queued run = %d, want 0", n)
	}
	// The freed slot must accept a new submission immediately.
	replacement, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatalf("submit after cancel = %v, want slot freed", err)
	}
	if _, err := d.Cancel(head.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, store, replacement.ID, run.StateSucceeded)
}

func TestTerminalRunRetention(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 16, Dispatchers: 2, RetainRuns: 3})
	var ids []string
	for i := 0; i < 8; i++ {
		r, err := d.Submit(pipelineSpec(5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
		waitForState(t, store, r.ID, run.StateSucceeded)
	}
	if n := store.Len(); n > 3 {
		t.Errorf("store holds %d terminal runs with RetainRuns=3", n)
	}
	// The newest run always survives its own eviction pass.
	if _, err := store.Get(ids[len(ids)-1]); err != nil {
		t.Errorf("newest run evicted: %v", err)
	}
}

// TestCancelQueuedHonoursRetention: a run cancelled out of the queue never
// reaches complete, so Cancel itself must apply the retention bound — on a
// coordinator with no workers, submit → cancel is the only path there is.
func TestCancelQueuedHonoursRetention(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 8, Remote: true, RetainRuns: 4, Metrics: metrics.NewRegistry()})
	for i := 0; i < 32; i++ {
		r, err := d.Submit(pipelineSpec(5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		if c, err := d.Cancel(r.ID); err != nil || c.State != run.StateCancelled {
			t.Fatalf("Cancel(%s) = %s, %v; want cancelled", r.ID, c.State, err)
		}
	}
	if n := store.Len(); n > 4 {
		t.Errorf("store holds %d cancelled runs with RetainRuns=4", n)
	}
	if n := d.met.evicted.Value(); n != 28 {
		t.Errorf("dagd_runs_evicted_total = %v after 32 cancellations with RetainRuns=4, want 28", n)
	}
}

// TestNewAppliesRetention: a durable store logs no evictions, so what it
// replays can exceed the bound; New trims it before any worker or reader
// sees it, and counts what it dropped.
func TestNewAppliesRetention(t *testing.T) {
	store := run.NewMemStore()
	var ids []string
	for i := 0; i < 6; i++ {
		r, _ := store.Create(pipelineSpec(5, 2, 0))
		if _, err := store.Cancel(r.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	d := New(store, Options{RetainRuns: 2, Remote: true, Metrics: metrics.NewRegistry()})
	defer d.Shutdown(context.Background())
	if n := store.Len(); n != 2 {
		t.Fatalf("store holds %d runs behind a fresh dispatcher with RetainRuns=2", n)
	}
	for _, id := range ids[4:] {
		if _, err := store.Get(id); err != nil {
			t.Errorf("newest-finished run %s trimmed: %v", id, err)
		}
	}
	if n := d.met.evicted.Value(); n != 4 {
		t.Errorf("dagd_runs_evicted_total = %v, want 4", n)
	}
}

// failingLog fails the records of one op: at Append, or — atWait — at
// Wait.
type failingLog struct {
	op     run.Op
	atWait bool
}

var errLogDown = errors.New("log: device gone")

// failTicket marks a record whose wait fails.
const failTicket = 1

func (l failingLog) Append(op run.Op, _ *run.Run) (uint64, error) {
	switch {
	case op != l.op:
		return 0, nil
	case l.atWait:
		return failTicket, nil
	}
	return 0, errLogDown
}

func (failingLog) Wait(ticket uint64) error {
	if ticket == failTicket {
		return errLogDown
	}
	return nil
}

func (failingLog) Close() error { return nil }

// mustRegistry builds a tenant registry or fails the test.
func mustRegistry(t *testing.T, cfgs ...tenant.Config) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// plugDispatcher submits a long cancellable run on the default tenant and
// waits until it occupies the (single) dispatcher, so subsequent
// submissions pile up in their tenant queues. Returns the plug's ID.
func plugDispatcher(t *testing.T, store *run.Store, d *Dispatcher) string {
	t.Helper()
	plug, err := d.Submit(slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, store, plug.ID, run.StateRunning)
	return plug.ID
}

func tenantSpec(name string, stages, width, work int) run.Spec {
	s := pipelineSpec(stages, width, work)
	s.Tenant = name
	return s
}

// TestTenantAttributionStamped: Submit resolves the spec's tenant through
// the registry — configured names stick (with the class stamped), unknown
// names collapse onto the catch-all default.
func TestTenantAttributionStamped(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{Name: "known", Priority: 3})
	store, d := newDispatcher(t, Options{QueueDepth: 8, Dispatchers: 1, Tenants: reg})

	r, err := d.Submit(tenantSpec("known", 5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Tenant != "known" || r.Spec.Priority != 3 {
		t.Errorf("stored spec attribution = %q/%d, want known/3", r.Spec.Tenant, r.Spec.Priority)
	}
	u, err := d.Submit(tenantSpec("never-configured", 5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if u.Spec.Tenant != tenant.Default {
		t.Errorf("unknown tenant stored as %q, want %q", u.Spec.Tenant, tenant.Default)
	}
	waitForState(t, store, r.ID, run.StateSucceeded)
	waitForState(t, store, u.ID, run.StateSucceeded)
}

// TestWeightedFairness is the starvation acceptance test: with one
// dispatcher and two equal-weight tenants, a light tenant that queued 10
// runs gets ~half of the first 20 completions even though a heavy tenant
// queued 20 runs first — DRR interleaves the queues instead of draining
// FIFO by arrival.
func TestWeightedFairness(t *testing.T) {
	reg := mustRegistry(t,
		tenant.Config{Name: "heavy", Weight: 1},
		tenant.Config{Name: "light", Weight: 1},
	)
	store, d := newDispatcher(t, Options{QueueDepth: 64, Dispatchers: 1, Tenants: reg})
	plugID := plugDispatcher(t, store, d)

	var heavy, light []string
	for i := 0; i < 20; i++ {
		r, err := d.Submit(tenantSpec("heavy", 5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, r.ID)
	}
	for i := 0; i < 10; i++ {
		r, err := d.Submit(tenantSpec("light", 5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		light = append(light, r.ID)
	}
	if _, err := d.Cancel(plugID); err != nil {
		t.Fatal(err)
	}

	type done struct {
		tenant string
		at     time.Time
	}
	var finished []done
	for _, batch := range []struct {
		name string
		ids  []string
	}{{"heavy", heavy}, {"light", light}} {
		for _, id := range batch.ids {
			got := waitForState(t, store, id, run.StateSucceeded)
			finished = append(finished, done{batch.name, *got.FinishedAt})
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].at.Before(finished[j].at) })

	lightDone := 0
	for _, f := range finished[:20] {
		if f.tenant == "light" {
			lightDone++
		}
	}
	// Exact DRR alternation gives 10/20; anything under the acceptance
	// floor (~40%) means the light tenant was starved behind the backlog.
	if lightDone < 8 {
		t.Errorf("light tenant got %d of the first 20 completions, want >= 8 (fair share)", lightDone)
	}
}

// TestPriorityClassDrainsFirst: with both classes backlogged, every
// higher-class run completes before any lower-class run starts.
func TestPriorityClassDrainsFirst(t *testing.T) {
	reg := mustRegistry(t,
		tenant.Config{Name: "batch", Priority: 0},
		tenant.Config{Name: "interactive", Priority: 1},
	)
	store, d := newDispatcher(t, Options{QueueDepth: 64, Dispatchers: 1, Tenants: reg})
	plugID := plugDispatcher(t, store, d)

	var lowIDs, highIDs []string
	for i := 0; i < 10; i++ {
		r, err := d.Submit(tenantSpec("batch", 5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		lowIDs = append(lowIDs, r.ID)
	}
	for i := 0; i < 5; i++ {
		r, err := d.Submit(tenantSpec("interactive", 5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		highIDs = append(highIDs, r.ID)
	}
	if _, err := d.Cancel(plugID); err != nil {
		t.Fatal(err)
	}

	var lastHigh, firstLow time.Time
	for _, id := range highIDs {
		got := waitForState(t, store, id, run.StateSucceeded)
		if got.FinishedAt.After(lastHigh) {
			lastHigh = *got.FinishedAt
		}
	}
	for _, id := range lowIDs {
		got := waitForState(t, store, id, run.StateSucceeded)
		if firstLow.IsZero() || got.StartedAt.Before(firstLow) {
			firstLow = *got.StartedAt
		}
	}
	if firstLow.Before(lastHigh) {
		t.Errorf("a batch (priority 0) run started at %v before the interactive (priority 1) backlog drained at %v",
			firstLow, lastHigh)
	}
}

// TestSubmitRateLimited: past the token bucket, Submit fails fast with
// ErrRateLimited and a positive Retry-After hint naming the tenant.
func TestSubmitRateLimited(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{Name: "limited", SubmitRate: 0.01, SubmitBurst: 1})
	_, d := newDispatcher(t, Options{QueueDepth: 8, Dispatchers: 1, Tenants: reg})

	if _, err := d.Submit(tenantSpec("limited", 5, 2, 0)); err != nil {
		t.Fatalf("first submit within burst: %v", err)
	}
	_, err := d.Submit(tenantSpec("limited", 5, 2, 0))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit = %v, want ErrRateLimited", err)
	}
	var re *RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("rate-limit error %v is not a *RetryableError", err)
	}
	if re.Tenant != "limited" || re.RetryAfter <= 0 {
		t.Errorf("RetryableError = %+v, want tenant limited and positive RetryAfter", re)
	}
	// Other tenants are unaffected.
	if _, err := d.Submit(pipelineSpec(5, 2, 0)); err != nil {
		t.Errorf("default-tenant submit during another tenant's rate limiting: %v", err)
	}
}

// TestQuotaExceeded: a tenant's configured MaxQueueDepth rejects with
// ErrQuotaExceeded (not the generic ErrQueueFull) and leaves other tenants
// untouched.
func TestQuotaExceeded(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{Name: "small", MaxQueueDepth: 1})
	store, d := newDispatcher(t, Options{QueueDepth: 64, Dispatchers: 1, Tenants: reg})
	plugID := plugDispatcher(t, store, d)

	if _, err := d.Submit(tenantSpec("small", 5, 2, 0)); err != nil {
		t.Fatalf("first queued submit within quota: %v", err)
	}
	_, err := d.Submit(tenantSpec("small", 5, 2, 0))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit = %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Error("quota rejection also matches ErrQueueFull; codes must stay distinct")
	}
	var re *RetryableError
	if !errors.As(err, &re) || re.Tenant != "small" {
		t.Fatalf("quota error %v does not carry the tenant", err)
	}
	// The default tenant still has its own (service-default) depth.
	if _, err := d.Submit(pipelineSpec(5, 2, 0)); err != nil {
		t.Errorf("default-tenant submit while another tenant is at quota: %v", err)
	}
	if _, err := d.Cancel(plugID); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRoutesToOwningTenantQueue: runs the store holds queued — as
// recovery leaves them — wait in their own tenant's queue, and runs
// attributed to a tenant that is no longer configured drain through the
// default queue while keeping their recorded attribution.
func TestRecoverRoutesToOwningTenantQueue(t *testing.T) {
	reg := mustRegistry(t,
		tenant.Config{Name: "alpha"},
		tenant.Config{Name: "beta"},
	)
	store, d := newDispatcher(t, Options{QueueDepth: 16, Dispatchers: 1, Tenants: reg})
	plugID := plugDispatcher(t, store, d)

	var recovered []run.Run
	for _, name := range []string{"alpha", "beta", "ghost"} {
		r, err := store.Create(tenantSpec(name, 5, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		recovered = append(recovered, r)
	}

	queued := loads(d)
	if queued["alpha"].queued != 1 || queued["beta"].queued != 1 {
		t.Errorf("per-tenant queued = alpha:%d beta:%d, want 1 each", queued["alpha"].queued, queued["beta"].queued)
	}
	// "ghost" is unconfigured: its run drains via the default queue.
	if queued[tenant.Default].queued != 1 {
		t.Errorf("default queue holds %d recovered runs, want 1 (the unconfigured tenant's)", queued[tenant.Default].queued)
	}

	if _, err := d.Cancel(plugID); err != nil {
		t.Fatal(err)
	}
	for _, r := range recovered {
		got := waitForState(t, store, r.ID, run.StateSucceeded)
		if got.Spec.Tenant != r.Spec.Tenant {
			t.Errorf("run %s attribution changed across recovery: %q -> %q", r.ID, r.Spec.Tenant, got.Spec.Tenant)
		}
	}
}

// TestQueuedCancelPoppedBeforeUnlink: a run cancelled while queued is
// never executed, even cancelled through the store alone, past the
// dispatcher: store.Cancel itself unlinks it, so no lease can pick it and
// the next run is served.
func TestQueuedCancelPoppedBeforeUnlink(t *testing.T) {
	store, d := newDispatcher(t, Options{QueueDepth: 8, Dispatchers: 1})
	plugID := plugDispatcher(t, store, d)

	victim, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := d.Submit(pipelineSpec(5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Bypass Dispatcher.Cancel: the store's transition alone unlinks it.
	if _, err := store.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Cancel(plugID); err != nil {
		t.Fatal(err)
	}
	// The follower completing proves the dispatcher skipped the cancelled
	// run without wedging or leaking the slot.
	waitForState(t, store, follower.ID, run.StateSucceeded)
	got, err := store.Get(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != run.StateCancelled || got.StartedAt != nil {
		t.Errorf("raced-cancel run = state %s started %v, want cancelled and never started", got.State, got.StartedAt)
	}
}

// blockingCreateLog parks every wait for a create record until released,
// modeling a log mid-fsync.
type blockingCreateLog struct {
	entered chan struct{} // closed when the first create's wait is reached
	release chan struct{} // the wait returns once this closes
	once    sync.Once
}

// createTicket marks a create record's ticket; every other record is
// durable at once.
const createTicket = 1

func (l *blockingCreateLog) Append(op run.Op, _ *run.Run) (uint64, error) {
	if op == run.OpCreate {
		return createTicket, nil
	}
	return 0, nil
}

func (l *blockingCreateLog) Wait(ticket uint64) error {
	if ticket == createTicket {
		l.once.Do(func() { close(l.entered) })
		<-l.release
	}
	return nil
}

func (l *blockingCreateLog) Close() error { return nil }

// TestSubmitDoesNotHoldLockAcrossCreate: with a create record's wait
// blocked (an fsync in flight), reading the queues and other submissions'
// backpressure checks must not block behind it.
func TestSubmitDoesNotHoldLockAcrossCreate(t *testing.T) {
	blocking := &blockingCreateLog{entered: make(chan struct{}), release: make(chan struct{})}
	d := New(run.NewStore(blocking), Options{QueueDepth: 1, Dispatchers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})

	submitted := make(chan error, 1)
	go func() {
		_, err := d.Submit(pipelineSpec(5, 2, 0))
		submitted <- err
	}()
	<-blocking.entered

	// The queue lock must be free while Create is in flight.
	lens := make(chan int, 1)
	go func() { lens <- queueLen(d) }()
	select {
	case n := <-lens:
		if n != 0 {
			t.Errorf("QueueLen during Create = %d, want 0 (admitted, not yet linked)", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reading the queues blocked behind an in-flight create")
	}

	// The admission still counts against the depth: a concurrent submit
	// sees the depth-1 queue as full instead of over-admitting.
	overflow := make(chan error, 1)
	go func() {
		_, err := d.Submit(pipelineSpec(5, 2, 0))
		overflow <- err
	}()
	select {
	case err := <-overflow:
		if !errors.Is(err, ErrQueueFull) {
			t.Errorf("submit during an admission's create = %v, want ErrQueueFull", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second Submit blocked behind the first's create")
	}

	close(blocking.release)
	if err := <-submitted; err != nil {
		t.Fatalf("blocked submit failed after release: %v", err)
	}
}

// TestSubmitDuringShutdown pins admission across a drain: a Submit whose
// create record is still being written when Shutdown begins succeeds, and
// its run executes before Shutdown returns; a Submit after Shutdown began
// is refused and leaves no run.
func TestSubmitDuringShutdown(t *testing.T) {
	blocking := &blockingCreateLog{entered: make(chan struct{}), release: make(chan struct{})}
	store := run.NewStore(blocking)
	d := New(store, Options{QueueDepth: 4, Dispatchers: 1})
	type result struct {
		r   run.Run
		err error
	}
	submitted := make(chan result, 1)
	go func() {
		r, err := d.Submit(pipelineSpec(5, 2, 0))
		submitted <- result{r, err}
	}()
	<-blocking.entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- d.Shutdown(ctx) }()
	for !store.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Submit(pipelineSpec(5, 2, 0)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Shutdown began = %v, want ErrShuttingDown", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with an admission in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(blocking.release)
	res := <-submitted
	if res.err != nil {
		t.Fatalf("Submit in flight at Shutdown = %v, want success", res.err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if got, err := store.Get(res.r.ID); err != nil || got.State != run.StateSucceeded {
		t.Errorf("run admitted across Shutdown = %s, %v; want succeeded", got.State, err)
	}
	if n := store.Len(); n != 1 {
		t.Errorf("store holds %d runs, want only the admitted one", n)
	}
}

// TestSubmitOverFailingLog: a run the log does not take is not admitted —
// Submit returns the log's error, the store holds nothing, and the queue
// stays empty for a worker to find nothing in.
func TestSubmitOverFailingLog(t *testing.T) {
	for _, atWait := range []bool{false, true} {
		store := run.NewStore(failingLog{op: run.OpCreate, atWait: atWait})
		d := New(store, Options{QueueDepth: 4, Dispatchers: 1})
		if _, err := d.Submit(pipelineSpec(5, 2, 0)); !errors.Is(err, errLogDown) {
			t.Errorf("atWait=%v: Submit = %v, want the log's error", atWait, err)
		}
		if n := queueLen(d); n != 0 {
			t.Errorf("atWait=%v: QueueLen = %d after a refused create, want 0", atWait, n)
		}
		if n := store.Len(); n != 0 {
			t.Errorf("atWait=%v: store holds %d runs after a refused create", atWait, n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d.Shutdown(ctx)
		cancel()
	}
}
