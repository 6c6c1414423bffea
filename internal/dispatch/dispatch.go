// Package dispatch admits runs into per-tenant bounded queues and hands
// them to workers one lease at a time, recording outcomes back into the run
// store. It is the bridge between the dagd API surface (internal/server)
// and the DAG engine (internal/gen + internal/sched).
//
// # One run lifecycle
//
// Every run takes the same path: Submit queues it, Lease picks it off the
// queues and marks it running under a worker's name, the worker executes
// it, and the completion is recorded, its in-flight slot released and old
// history evicted. Who the worker is is the only thing that varies. An
// embedded dagd starts Options.Dispatchers in-process workers (worker name
// "") that loop Lease → run.Execute → complete; a coordinator
// (Options.Remote) starts none and internal/fleet drives Lease /
// CompleteLease / ExpireLease on behalf of dagworker processes.
//
// # Multi-tenant scheduling
//
// Every run belongs to a tenant (internal/tenant): submissions are
// attributed at admission, rate-limited by the tenant's token bucket, and
// bounded by the tenant's queue-depth quota. Dispatchers drain the queues
// with strict priority between tenant priority classes and weighted
// deficit round-robin within a class, so a single heavy tenant saturating
// its own queue cannot starve anyone else: each rotation gives every
// backlogged tenant `weight` runs. A tenant at its in-flight cap is
// skipped — its queued work waits without blocking other tenants' queues.
//
// Every leased run has a cancel hook registered in the store, so POST
// /v1/runs/{id}/cancel aborts the exact run it names: an in-process worker
// cancels the run's context, the fleet relays the request to the remote
// worker. Cancelling a run that is still queued removes it from its
// tenant's queue immediately, freeing the slot for new submissions.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// Submission/shutdown errors.
var (
	// ErrQueueFull is returned by Submit when the tenant's queue is at the
	// service-wide default depth; the caller should surface backpressure
	// (HTTP 429).
	ErrQueueFull = errors.New("dispatch: queue full")
	// ErrQuotaExceeded is returned by Submit when the tenant's explicitly
	// configured queue-depth quota is exhausted (HTTP 429).
	ErrQuotaExceeded = errors.New("dispatch: tenant queue quota exceeded")
	// ErrRateLimited is returned by Submit when the tenant's token bucket
	// is empty; the wrapping RetryableError carries how long until the next
	// token accrues (HTTP 429 + Retry-After).
	ErrRateLimited = errors.New("dispatch: tenant submit rate exceeded")
	// ErrShuttingDown is returned by Submit after Shutdown has begun.
	ErrShuttingDown = errors.New("dispatch: shutting down")
	// ErrNotLeased is returned by CompleteLease and ExpireLease when the
	// run has no outstanding lease — typically the loser of a completion
	// vs. expiry race, whose report must be discarded.
	ErrNotLeased = errors.New("dispatch: run not leased")
)

// RetryableError wraps a backpressure rejection (ErrRateLimited,
// ErrQuotaExceeded, ErrQueueFull) with the tenant it hit and a retry hint
// the API layer surfaces as the Retry-After header.
type RetryableError struct {
	Err        error
	Tenant     string
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *RetryableError) Error() string {
	return fmt.Sprintf("%v (tenant %q, retry after %v)", e.Err, e.Tenant, e.RetryAfter)
}

// Unwrap exposes the underlying sentinel to errors.Is.
func (e *RetryableError) Unwrap() error { return e.Err }

// Options configures a Dispatcher.
type Options struct {
	// QueueDepth bounds how many runs may wait in a tenant's queue when the
	// tenant config sets no MaxQueueDepth of its own. Zero or negative
	// means 256.
	QueueDepth int
	// Dispatchers is the number of in-process workers, i.e. how many runs
	// execute concurrently when Remote is off. Zero or negative means
	// NumCPU.
	Dispatchers int
	// DefaultRunWorkers is the scheduler pool size for specs that leave
	// Workers at 0. Zero or negative means NumCPU.
	DefaultRunWorkers int
	// DefaultWorkload is stamped onto specs that name no workload. Empty
	// means the registry default (sched.DefaultWorkload). An unknown name
	// here is caught by spec validation at Submit time.
	DefaultWorkload string
	// RetainRuns bounds how many terminal runs the store keeps; the
	// oldest-finished are evicted past it. Zero means 4096; negative
	// means unlimited retention.
	RetainRuns int
	// Tenants is the admission policy: weights, priority classes, quotas,
	// and rate limits per tenant. Nil means a registry holding only the
	// catch-all default tenant, which reproduces the pre-tenant behavior
	// (one queue, QueueDepth bound, no rate limit).
	Tenants *tenant.Registry
	// Metrics receives the dispatcher's instrumentation (queue depths,
	// wait times, run outcomes). Nil disables it — every instrument in
	// internal/metrics is a no-op on nil.
	Metrics *metrics.Registry
	// Remote leaves execution to external workers: no in-process workers
	// are started, and internal/fleet drives Lease / CompleteLease /
	// ExpireLease instead. Everything else — admission, tenant fair
	// queuing, the run lifecycle, the store contract — is the same code.
	Remote bool
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Dispatchers <= 0 {
		o.Dispatchers = runtime.NumCPU()
	}
	if o.DefaultRunWorkers <= 0 {
		o.DefaultRunWorkers = runtime.NumCPU()
	}
	if o.RetainRuns == 0 {
		o.RetainRuns = 4096
	}
	if o.Tenants == nil {
		// NewRegistry(nil) cannot fail: there is nothing to validate.
		o.Tenants, _ = tenant.NewRegistry(nil)
	}
	return o
}

// queued is one pending queue entry: the run's ID, when it entered the
// queue (so pops can observe queue-wait and scrapes the oldest entry's
// age), and its workload name and DAG shape so Lease can match entries
// against a worker's advertised capabilities without a store read per
// candidate.
type queued struct {
	id       string
	at       time.Time
	workload string
	shape    string
}

// leaseEntry tracks one run handed to a worker: which tenant queue owns its
// in-flight slot and the workload/shape to re-stamp on the queue entry if
// the lease expires. Guarded by the Dispatcher's mu.
type leaseEntry struct {
	tq       *tenantQueue
	workload string
	shape    string
}

// tenantQueue is one tenant's scheduling state. All fields are guarded by
// the Dispatcher's mu.
type tenantQueue struct {
	cfg    tenant.Config
	bucket *tenant.Bucket // nil when the tenant has no submit rate limit

	queue    []queued // pending runs, FIFO within the tenant
	reserved int      // Submit slots held while store.Create runs outside mu
	inflight int      // runs currently leased to a worker
	deficit  int      // deficit-round-robin credit within the priority class

	// Monotonic counters for stats.
	submitted   uint64 // runs admitted to the queue (including recoveries)
	completed   uint64 // leases completed (runs a worker took to a terminal state)
	rejected    uint64 // submissions refused for queue depth / quota
	rateLimited uint64 // submissions refused by the token bucket
}

// depth is the tenant's effective queue bound: its configured quota, or
// the service-wide default.
func (tq *tenantQueue) depth(serviceDefault int) int {
	if tq.cfg.MaxQueueDepth > 0 {
		return tq.cfg.MaxQueueDepth
	}
	return serviceDefault
}

// atInFlightCap reports whether the tenant may not start another run.
func (tq *tenantQueue) atInFlightCap() bool {
	return tq.cfg.MaxInFlight > 0 && tq.inflight >= tq.cfg.MaxInFlight
}

// priorityClass is the deficit-round-robin rotation over one priority
// level's tenants. Guarded by the Dispatcher's mu.
type priorityClass struct {
	priority int
	order    []*tenantQueue
	cursor   int
}

// pick dequeues the next run this class should dispatch, or reports false
// when no tenant in the class has an eligible queued run. It implements
// unit-cost deficit round-robin: when the cursor reaches a backlogged
// tenant with no credit left, the tenant is granted `weight` credits and
// serves them one pick at a time before the cursor moves on — so over a
// full rotation each backlogged tenant drains runs in proportion to its
// weight. An empty queue forfeits its remaining credit (classic DRR: idle
// tenants must not bank bursts); a tenant at its in-flight cap is skipped
// with its credit intact and resumes when capacity frees up.
//
// eligible, when non-nil, restricts the pick to entries whose workload and
// DAG shape it accepts — the requesting worker's advertised capabilities.
// The earliest eligible entry in the tenant's FIFO is served; a tenant
// whose queued work is entirely ineligible is skipped with its credit
// intact, exactly like an at-cap tenant (another worker may drain it). A
// nil eligible (the in-process workers) always serves the head.
func (cl *priorityClass) pick(eligible func(workload, shape string) bool) (*tenantQueue, queued, bool) {
	n := len(cl.order)
	for i := 0; i < n; i++ {
		tq := cl.order[cl.cursor]
		if len(tq.queue) == 0 {
			tq.deficit = 0
			cl.cursor = (cl.cursor + 1) % n
			continue
		}
		if tq.atInFlightCap() {
			cl.cursor = (cl.cursor + 1) % n
			continue
		}
		j := 0
		if eligible != nil {
			j = -1
			for k := range tq.queue {
				if eligible(tq.queue[k].workload, tq.queue[k].shape) {
					j = k
					break
				}
			}
			if j < 0 {
				cl.cursor = (cl.cursor + 1) % n
				continue
			}
		}
		if tq.deficit <= 0 {
			tq.deficit = tq.cfg.Weight
		}
		tq.deficit--
		entry := tq.queue[j]
		if j == 0 {
			tq.queue = tq.queue[1:]
		} else {
			tq.queue = append(tq.queue[:j], tq.queue[j+1:]...)
		}
		if tq.deficit <= 0 || len(tq.queue) == 0 {
			cl.cursor = (cl.cursor + 1) % n
		}
		return tq, entry, true
	}
	return nil, queued{}, false
}

// Dispatcher owns the per-tenant run queues, the lease table and, unless
// Options.Remote, the in-process workers draining them.
type Dispatcher struct {
	store run.Store
	opts  Options

	// baseCtx parents the context of every run an in-process worker
	// executes; force-cancelling it aborts them all during a hard shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup // in-process workers

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*tenantQueue
	classes []*priorityClass // strictly descending by priority
	leased  map[string]*leaseEntry
	closed  bool

	met instruments
}

// instruments is the dispatcher's metric handles. Every field is nil-safe
// (see internal/metrics), so an unconfigured registry costs nothing.
type instruments struct {
	submits      *metrics.CounterVec   // dagd_submits_total{tenant}
	rejections   *metrics.CounterVec   // dagd_submit_rejections_total{tenant,reason}
	queueDepth   *metrics.GaugeVec     // dagd_queue_depth{tenant,priority}
	inflight     *metrics.GaugeVec     // dagd_inflight_runs{tenant,priority}
	oldestAge    *metrics.GaugeVec     // dagd_queue_oldest_age_seconds{tenant,priority}
	queueWait    *metrics.HistogramVec // dagd_queue_wait_seconds{tenant}
	completed    *metrics.CounterVec   // dagd_runs_completed_total{tenant,state}
	runDuration  *metrics.HistogramVec // dagd_run_duration_seconds{workload,shape}
	runNodes     *metrics.CounterVec   // dagd_run_nodes_total{workload}
	redispatched *metrics.CounterVec   // dagd_runs_redispatched_total{tenant}
	evicted      *metrics.Counter      // dagd_runs_evicted_total
}

// newInstruments registers the dispatcher's metric families. reg may be nil.
func newInstruments(reg *metrics.Registry) instruments {
	runBuckets := []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}
	return instruments{
		submits: reg.CounterVec("dagd_submits_total",
			"Runs admitted to a tenant queue (including crash-recovery re-admissions).", "tenant"),
		rejections: reg.CounterVec("dagd_submit_rejections_total",
			"Submissions refused, by cause: rate_limited, quota_exceeded, queue_full, shutting_down, invalid_spec.",
			"tenant", "reason"),
		queueDepth: reg.GaugeVec("dagd_queue_depth",
			"Runs currently waiting in the tenant's queue.", "tenant", "priority"),
		inflight: reg.GaugeVec("dagd_inflight_runs",
			"Runs currently leased to a worker (in-process or remote).", "tenant", "priority"),
		oldestAge: reg.GaugeVec("dagd_queue_oldest_age_seconds",
			"Age of the oldest queued run at scrape time (0 when the queue is empty).",
			"tenant", "priority"),
		queueWait: reg.HistogramVec("dagd_queue_wait_seconds",
			"Submit-to-dispatch latency: time a run waited in its tenant queue.",
			runBuckets, "tenant"),
		completed: reg.CounterVec("dagd_runs_completed_total",
			"Runs that reached a terminal state, by tenant and final state.", "tenant", "state"),
		runDuration: reg.HistogramVec("dagd_run_duration_seconds",
			"Wall time a worker held the run: started_at to finished_at on the coordinator's clock.",
			runBuckets, "workload", "shape"),
		runNodes: reg.CounterVec("dagd_run_nodes_total",
			"DAG nodes executed by completed runs.", "workload"),
		redispatched: reg.CounterVec("dagd_runs_redispatched_total",
			"Runs requeued after their worker lease expired (Restarts incremented).", "tenant"),
		evicted: reg.Counter("dagd_runs_evicted_total",
			"Terminal runs dropped from the store for exceeding the retention bound, oldest-finished first."),
	}
}

// New creates a Dispatcher recording into store (any run.Store — in-memory
// or WAL-backed) and, unless opts.Remote, starts its in-process workers.
// Callers must eventually call Shutdown.
func New(store run.Store, opts Options) *Dispatcher {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	d := &Dispatcher{
		store:      store,
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		queues:     make(map[string]*tenantQueue),
		leased:     make(map[string]*leaseEntry),
	}
	d.cond = sync.NewCond(&d.mu)

	byPriority := make(map[int]*priorityClass)
	for _, cfg := range opts.Tenants.Configs() {
		tq := &tenantQueue{cfg: cfg}
		if cfg.SubmitRate > 0 {
			tq.bucket = tenant.NewBucket(cfg.SubmitRate, cfg.SubmitBurst)
		}
		d.queues[cfg.Name] = tq
		cl, ok := byPriority[cfg.Priority]
		if !ok {
			cl = &priorityClass{priority: cfg.Priority}
			byPriority[cfg.Priority] = cl
			d.classes = append(d.classes, cl)
		}
		cl.order = append(cl.order, tq)
	}
	sort.Slice(d.classes, func(i, j int) bool { return d.classes[i].priority > d.classes[j].priority })
	// Deterministic rotation order within each class.
	for _, cl := range d.classes {
		sort.Slice(cl.order, func(i, j int) bool { return cl.order[i].cfg.Name < cl.order[j].cfg.Name })
	}

	d.met = newInstruments(opts.Metrics)
	// Queue depth, in-flight, and oldest-age are derived state refreshed at
	// scrape time: one lock acquisition per scrape instead of gauge
	// bookkeeping on every queue mutation.
	opts.Metrics.OnCollect(func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		now := time.Now()
		for name, tq := range d.queues {
			prio := strconv.Itoa(tq.cfg.Priority)
			d.met.queueDepth.With(name, prio).Set(float64(len(tq.queue)))
			d.met.inflight.With(name, prio).Set(float64(tq.inflight))
			age := 0.0
			if len(tq.queue) > 0 {
				age = now.Sub(tq.queue[0].at).Seconds()
			}
			d.met.oldestAge.With(name, prio).Set(age)
		}
	})

	// Apply the retention bound to whatever the store came up holding: a
	// durable store logs no evictions, so a replay can hand back runs that
	// were evicted after their shard last compacted — all older than
	// anything retained, and trimmed here before a worker or a reader can
	// see them.
	d.evict()

	if !opts.Remote {
		for i := 0; i < opts.Dispatchers; i++ {
			d.wg.Add(1)
			go d.work()
		}
	}
	return d
}

// queueForLocked returns the queue a tenant name schedules into: the named
// tenant's own queue, or the catch-all default's. The registry is static
// for the dispatcher's lifetime, so the mapping never changes — a run
// enqueued, cancelled, or recovered under a name always lands on the same
// queue.
func (d *Dispatcher) queueForLocked(name string) *tenantQueue {
	if tq, ok := d.queues[name]; ok {
		return tq
	}
	return d.queues[tenant.Default]
}

// QueueDepth returns the default per-tenant queue capacity (for health
// reporting); tenants with a configured MaxQueueDepth use that instead.
func (d *Dispatcher) QueueDepth() int { return d.opts.QueueDepth }

// QueueLen returns how many runs are currently waiting across all tenants.
func (d *Dispatcher) QueueLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queuedLocked()
}

func (d *Dispatcher) queuedLocked() int {
	n := 0
	for _, tq := range d.queues {
		n += len(tq.queue)
	}
	return n
}

// Dispatchers returns the configured number of in-process workers.
func (d *Dispatcher) Dispatchers() int { return d.opts.Dispatchers }

// Draining reports whether Shutdown has begun, i.e. whether new
// submissions would be refused with ErrShuttingDown. Readiness probes use
// this to flip unready while liveness stays green.
func (d *Dispatcher) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// TenantStats is one tenant's scheduling snapshot, surfaced per tenant in
// the service stats.
type TenantStats struct {
	Weight      int    `json:"weight"`
	Priority    int    `json:"priority,omitempty"`
	Queued      int    `json:"queued"`
	InFlight    int    `json:"in_flight"`
	Submitted   uint64 `json:"submitted"`
	Completed   uint64 `json:"completed"`
	Rejected    uint64 `json:"rejected,omitempty"`
	RateLimited uint64 `json:"rate_limited,omitempty"`
}

// TenantStats snapshots every tenant's queue state and counters.
func (d *Dispatcher) TenantStats() map[string]TenantStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tenantStatsLocked()
}

func (d *Dispatcher) tenantStatsLocked() map[string]TenantStats {
	out := make(map[string]TenantStats, len(d.queues))
	for name, tq := range d.queues {
		out[name] = TenantStats{
			Weight:      tq.cfg.Weight,
			Priority:    tq.cfg.Priority,
			Queued:      len(tq.queue),
			InFlight:    tq.inflight,
			Submitted:   tq.submitted,
			Completed:   tq.completed,
			Rejected:    tq.rejected,
			RateLimited: tq.rateLimited,
		}
	}
	return out
}

// Snapshot is one internally consistent view of the dispatcher's state: the
// total queue length is exactly the sum of the per-tenant Queued values, and
// Draining matches the same instant. TenantStats/QueueLen/Draining taken
// separately can each be individually correct yet mutually inconsistent —
// the /healthz handler serializes a Snapshot instead.
type Snapshot struct {
	QueueLen int
	Draining bool
	Tenants  map[string]TenantStats
}

// Snapshot captures queue lengths, drain state, and every tenant's counters
// under a single lock acquisition.
func (d *Dispatcher) Snapshot() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Snapshot{
		QueueLen: d.queuedLocked(),
		Draining: d.closed,
		Tenants:  d.tenantStatsLocked(),
	}
}

// Submit resolves the spec's tenant, enforces the tenant's rate limit and
// queue quota, validates the spec, registers a queued run, and enqueues
// it. It never blocks on execution: backpressure fails fast with a
// RetryableError wrapping ErrRateLimited, ErrQuotaExceeded, or
// ErrQueueFull, and no run is left behind in the store.
//
// The store.Create call — which may fsync a WAL record — runs outside the
// queue lock: Submit reserves the tenant's queue slot under the lock,
// creates, then converts the reservation into a real queue entry. Other
// submissions, cancellations, and leases proceed during the disk
// write.
func (d *Dispatcher) Submit(spec run.Spec) (run.Run, error) {
	// Stamp the service defaults before validation so the stored spec (and
	// any 400 for a bad default) reflects what will actually execute. The
	// tenant attribution is resolved here — never trusted from the spec —
	// so unknown names collapse onto the catch-all default tenant.
	if spec.Workload == "" {
		spec.Workload = d.opts.DefaultWorkload
	}
	cfg := d.opts.Tenants.Resolve(spec.Tenant)
	spec.Tenant = cfg.Name
	spec.Priority = cfg.Priority
	if err := spec.Validate(); err != nil {
		d.met.rejections.With(cfg.Name, "invalid_spec").Inc()
		return run.Run{}, err
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.met.rejections.With(cfg.Name, "shutting_down").Inc()
		return run.Run{}, ErrShuttingDown
	}
	tq := d.queueForLocked(cfg.Name)
	if tq.bucket != nil {
		if ok, retry := tq.bucket.Take(); !ok {
			tq.rateLimited++
			d.mu.Unlock()
			d.met.rejections.With(cfg.Name, "rate_limited").Inc()
			return run.Run{}, &RetryableError{Err: ErrRateLimited, Tenant: cfg.Name, RetryAfter: retry}
		}
	}
	if len(tq.queue)+tq.reserved >= tq.depth(d.opts.QueueDepth) {
		tq.rejected++
		sentinel := ErrQueueFull
		reason := "queue_full"
		if tq.cfg.MaxQueueDepth > 0 {
			sentinel = ErrQuotaExceeded
			reason = "quota_exceeded"
		}
		d.mu.Unlock()
		d.met.rejections.With(cfg.Name, reason).Inc()
		return run.Run{}, &RetryableError{Err: sentinel, Tenant: cfg.Name, RetryAfter: time.Second}
	}
	tq.reserved++
	d.mu.Unlock()

	r, err := d.store.Create(spec)

	d.mu.Lock()
	tq.reserved--
	if err != nil {
		d.mu.Unlock()
		// Durable stores refuse to admit a run they could not log; surface
		// the failure instead of accepting work that a restart would lose.
		return run.Run{}, err
	}
	if d.closed {
		d.mu.Unlock()
		// Shutdown began while the record was being written; the workers
		// may already have drained, so enqueuing now could strand the run
		// in queued forever. Roll the create back — the ID never escaped.
		if derr := d.store.Delete(r.ID); derr != nil {
			log.Printf("dispatch: rolling back %s admitted during shutdown: %v", r.ID, derr)
		}
		d.met.rejections.With(cfg.Name, "shutting_down").Inc()
		return run.Run{}, ErrShuttingDown
	}
	tq.queue = append(tq.queue, queued{id: r.ID, at: time.Now(), workload: spec.Workload, shape: spec.Shape.String()})
	tq.submitted++
	d.cond.Signal()
	d.mu.Unlock()
	d.met.submits.With(cfg.Name).Inc()
	return r, nil
}

// Recover enqueues runs that already exist in the store as queued — the
// interrupted runs a durable store re-admitted during crash recovery —
// each into its owning tenant's queue (runs whose tenant is no longer
// configured drain through the catch-all default queue, keeping their
// original attribution). It deliberately ignores queue-depth quotas:
// recovered work was admitted before the restart, and dropping it now
// would turn a crash into silent data loss. The transient over-depth
// backlog drains like any other. Returns how many runs were enqueued
// (zero after Shutdown has begun).
func (d *Dispatcher) Recover(runs []run.Run) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	now := time.Now()
	for _, r := range runs {
		tq := d.queueForLocked(r.Spec.Tenant)
		tq.queue = append(tq.queue, queued{id: r.ID, at: now, workload: r.Spec.Workload, shape: r.Spec.Shape.String()})
		tq.submitted++
		d.met.submits.With(tq.cfg.Name).Inc()
	}
	d.cond.Broadcast()
	return len(runs)
}

// Cancel requests cancellation of the identified run (see run.Store.Cancel
// for the state semantics). A run cancelled while still queued is removed
// from its tenant's queue immediately, so the slot is free for new
// submissions.
func (d *Dispatcher) Cancel(id string) (run.Run, error) {
	r, err := d.store.Cancel(id)
	if err == nil && r.State == run.StateCancelled && r.StartedAt == nil {
		// Cancelled straight out of the queue: drop the pending entry.
		d.mu.Lock()
		tq := d.queueForLocked(r.Spec.Tenant)
		for i, entry := range tq.queue {
			if entry.id == id {
				tq.queue = append(tq.queue[:i], tq.queue[i+1:]...)
				break
			}
		}
		// A drain may be waiting for exactly this queue to empty.
		d.cond.Broadcast()
		d.mu.Unlock()
		// The run reached a terminal state without ever being leased, so
		// complete will neither count it nor evict past the retention bound.
		d.met.completed.With(r.Spec.Tenant, run.StateCancelled.String()).Inc()
		d.evict()
	}
	return r, err
}

// Shutdown stops accepting new runs and waits until nothing is queued or
// leased. What ctx expiring first means is the one place the two modes
// differ: in-process runs are force-cancelled (each finishes as cancelled)
// and Shutdown keeps waiting for them, while remote leases are abandoned —
// they replay as queued on the next boot, exactly like a crash. Either way
// ctx's error is returned. Shutdown is idempotent.
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.cond.Broadcast()
	}
	d.mu.Unlock()

	err := d.drain(ctx)
	if err != nil && !d.opts.Remote {
		d.baseCancel()
	}
	// An in-process worker leaves once the queues are closed and empty and
	// its own last complete call has returned, so this wait both finishes
	// a forced drain and covers the tail (Finish, eviction) of a clean one.
	d.wg.Wait()
	return err
}

// drain waits until nothing is queued or leased: complete and ExpireLease
// broadcast on every state change, so the wait re-checks until then, or
// until ctx gives up.
func (d *Dispatcher) drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		// Taking mu before broadcasting guarantees the waiter below is
		// either still before its ctx.Err() check or parked in Wait —
		// never in between, where a wakeup could be lost.
		d.mu.Lock()
		defer d.mu.Unlock()
		d.cond.Broadcast()
	})
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.queuedLocked()+len(d.leased) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		d.cond.Wait()
	}
	return nil
}

// evict drops terminal history past the retention bound.
func (d *Dispatcher) evict() {
	d.met.evicted.Add(float64(d.store.EvictTerminal(d.opts.RetainRuns)))
}

// release returns a leased in-flight slot, waking Lease callers that may
// have been skipping the tenant at its cap (and drain waiters).
func (d *Dispatcher) release(tq *tenantQueue, completed bool) {
	d.mu.Lock()
	tq.inflight--
	if completed {
		tq.completed++
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}
