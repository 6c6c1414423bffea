// Package dispatch admits runs into per-tenant bounded queues and hands
// them to workers one lease at a time, recording outcomes back into the run
// store. It is the bridge between the dagd API surface (internal/server)
// and the DAG engine (internal/gen + internal/sched).
//
// # One run lifecycle
//
// Every run takes the same path: Submit admits it into its tenant's queue
// in the store, Lease picks it off the queues and marks it running under a
// worker's name, the worker executes it, and the completion is recorded
// and old history evicted. Who the worker is is the only thing that
// varies. An embedded dagd starts Options.Dispatchers in-process workers
// (worker name "") that loop Lease → run.Execute → complete; a coordinator
// (Options.Remote) starts none and internal/fleet drives Lease /
// CompleteLease / ExpireLease on behalf of dagworker processes.
//
// # One record of a run: the store's
//
// The queues, in-flight slots and leases are run.Store's (its "Tenant
// queues"), moved by the transitions that change a run's state; the
// dispatcher keeps only policy: tenant configs, token buckets, DRR deficits
// and cursors, priority classes. Lease is one store.BeginNext call, this
// package's pick and the queued → running transition in one step.
// complete and ExpireLease call store.Finish or store.Requeue, which
// refuses the second of two racing calls with run.ErrNotRunning, so of a
// completion and an expiry exactly one wins and the loser gets
// ErrNotLeased.
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
// cancels the run's context; the fleet relays the run's CancelRequested to
// the remote worker on its next heartbeat. Cancelling a run that is still
// queued unlinks it from its tenant's queue, freeing the slot for new
// submissions.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
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

// tenantQueue is one tenant's policy over its queue in the store. Only
// pick, under the store's lock, touches deficit and the class cursors.
type tenantQueue struct {
	cfg     tenant.Config
	bucket  *tenant.Bucket // nil when the tenant has no submit rate limit
	q       *run.Queue
	deficit int // deficit-round-robin credit within the priority class
}

// atInFlightCap reports whether the tenant may not start another run.
func (tq *tenantQueue) atInFlightCap() bool {
	return tq.cfg.MaxInFlight > 0 && tq.q.Running() >= tq.cfg.MaxInFlight
}

// priorityClass is the deficit-round-robin rotation over one priority
// level's tenants.
type priorityClass struct {
	priority int
	order    []*tenantQueue
	cursor   int
}

// pick names the tenant whose queue's head this class dispatches next, or
// nil when no tenant in the class has a run it may start. It implements
// unit-cost deficit round-robin: when the cursor reaches a backlogged
// tenant with no credit left, the tenant is granted `weight` credits and
// serves them one pick at a time before the cursor moves on — so over a
// full rotation each backlogged tenant drains runs in proportion to its
// weight. An empty queue forfeits its remaining credit (classic DRR: idle
// tenants must not bank bursts); a tenant at its in-flight cap is skipped
// with its credit intact and resumes when capacity frees up. Every worker
// runs every run, so a pick always serves the head of the tenant's FIFO.
func (cl *priorityClass) pick() *tenantQueue {
	n := len(cl.order)
	for i := 0; i < n; i++ {
		tq := cl.order[cl.cursor]
		if tq.q.Len() == 0 {
			tq.deficit = 0
			cl.cursor = (cl.cursor + 1) % n
			continue
		}
		if tq.atInFlightCap() {
			cl.cursor = (cl.cursor + 1) % n
			continue
		}
		if tq.deficit <= 0 {
			tq.deficit = tq.cfg.Weight
		}
		tq.deficit--
		if tq.deficit <= 0 || tq.q.Len() == 1 {
			cl.cursor = (cl.cursor + 1) % n
		}
		return tq
	}
	return nil
}

// Dispatcher is the scheduling policy over the store's tenant queues and,
// unless Options.Remote, the in-process workers draining them.
type Dispatcher struct {
	store *run.Store
	opts  Options

	// baseCtx parents the context of every run an in-process worker
	// executes; force-cancelling it aborts them all during a hard shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg sync.WaitGroup // in-process workers

	queues  map[string]*tenantQueue // every configured tenant's; fixed at New
	classes []*priorityClass        // strictly descending by priority

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

// New creates a Dispatcher recording into store (with a durable log or
// without) and, unless opts.Remote, starts its in-process workers.
// Callers must eventually call Shutdown.
func New(store *run.Store, opts Options) *Dispatcher {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	d := &Dispatcher{
		store:      store,
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		queues:     make(map[string]*tenantQueue),
	}

	byPriority := make(map[int]*priorityClass)
	for _, cfg := range opts.Tenants.Configs() {
		tq := &tenantQueue{cfg: cfg, q: store.Queue(cfg.Name)}
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
	// A durable store comes up holding its re-admitted runs queued: they
	// count as admissions, as a Submit's would.
	store.View(func() {
		for name, tq := range d.queues {
			d.met.submits.With(name).Add(float64(tq.q.Len()))
		}
	})
	// Queue depth, in-flight, and oldest-age are read off the store's
	// queues at scrape time: one lock acquisition per scrape.
	opts.Metrics.OnCollect(func() {
		now := time.Now()
		d.store.View(func() {
			for name, tq := range d.queues {
				prio := strconv.Itoa(tq.cfg.Priority)
				d.met.queueDepth.With(name, prio).Set(float64(tq.q.Len()))
				d.met.inflight.With(name, prio).Set(float64(tq.q.Running()))
				d.met.oldestAge.With(name, prio).Set(tq.q.Age(now).Seconds())
			}
		})
	})

	// Apply the retention bound to whatever the store came up holding: a
	// durable store logs no evictions, so a replay can hand back runs that
	// were evicted after the log last compacted — all older than
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

// QueueDepth returns the default per-tenant queue capacity (the queue_full
// error reports it); tenants with a configured MaxQueueDepth use that
// instead.
func (d *Dispatcher) QueueDepth() int { return d.opts.QueueDepth }

// Submit resolves the spec's tenant, enforces the tenant's rate limit,
// validates the spec, and admits a queued run within the tenant's depth
// (run.Store.Admit, which holds no lock across the disk write). It never
// blocks on execution: backpressure fails fast with a RetryableError
// wrapping ErrRateLimited, ErrQuotaExceeded, or ErrQueueFull, leaving no
// run behind. A drain waits for every admitted run, so a Submit that
// succeeds executes, or replays after a restart.
func (d *Dispatcher) Submit(spec run.Spec) (run.Run, error) {
	// Stamp the defaults before validation so the stored spec reflects
	// what will actually execute: sched.DefaultWorkload, and the
	// generator version, so a replayed record names the generator it was
	// admitted under, and fails closed once that one is retired. The tenant
	// attribution is resolved here — never trusted from the spec — so
	// unknown names collapse onto the catch-all default tenant.
	if spec.Workload == "" {
		spec.Workload = sched.DefaultWorkload
	}
	if spec.GenVersion == 0 {
		spec.GenVersion = gen.CurrentVersion
	}
	cfg := d.opts.Tenants.Resolve(spec.Tenant)
	spec.Tenant = cfg.Name
	spec.Priority = cfg.Priority
	if err := spec.Validate(); err != nil {
		d.met.rejections.With(cfg.Name, "invalid_spec").Inc()
		return run.Run{}, err
	}

	tq := d.queues[cfg.Name]
	if tq.bucket != nil {
		if ok, retry := tq.bucket.Take(); !ok {
			d.met.rejections.With(cfg.Name, "rate_limited").Inc()
			return run.Run{}, &RetryableError{Err: ErrRateLimited, Tenant: cfg.Name, RetryAfter: retry}
		}
	}
	// The tenant's configured quota, or the service-wide default.
	depth, sentinel, reason := d.opts.QueueDepth, ErrQueueFull, "queue_full"
	if tq.cfg.MaxQueueDepth > 0 {
		depth, sentinel, reason = tq.cfg.MaxQueueDepth, ErrQuotaExceeded, "quota_exceeded"
	}
	r, err := d.store.Admit(spec, depth)
	switch {
	case errors.Is(err, run.ErrDraining):
		d.met.rejections.With(cfg.Name, "shutting_down").Inc()
		return run.Run{}, ErrShuttingDown
	case errors.Is(err, run.ErrQueueFull):
		d.met.rejections.With(cfg.Name, reason).Inc()
		return run.Run{}, &RetryableError{Err: sentinel, Tenant: cfg.Name, RetryAfter: time.Second}
	case err != nil:
		// Durable stores refuse to admit a run they could not log; surface
		// the failure instead of accepting work that a restart would lose.
		return run.Run{}, err
	}
	d.met.submits.With(cfg.Name).Inc()
	return r, nil
}

// Cancel requests cancellation of the identified run (see run.Store.Cancel
// for the state semantics: a queued run leaves its tenant's queue at once,
// so the slot is free for new submissions).
func (d *Dispatcher) Cancel(id string) (run.Run, error) {
	r, err := d.store.Cancel(id)
	if err == nil && r.State == run.StateCancelled && r.StartedAt == nil {
		// The run reached a terminal state without ever being leased, so
		// complete will neither count it nor evict past the retention bound.
		d.met.completed.With(r.Spec.Tenant, run.StateCancelled.String()).Inc()
		d.evict()
	}
	return r, err
}

// Shutdown stops accepting new runs and waits until nothing is queued or
// leased (run.Store.Drain). What ctx expiring first means is the one place
// the two modes differ: in-process runs are force-cancelled (each finishes
// as cancelled) and Shutdown keeps waiting for them, while remote leases
// are abandoned — they replay as queued on the next boot, exactly like a
// crash. Either way ctx's error is returned. Shutdown is idempotent.
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	err := d.store.Drain(ctx)
	if err != nil && !d.opts.Remote {
		d.baseCancel()
	}
	// An in-process worker leaves once the queues are draining and empty
	// and its own last complete call has returned, so this wait both
	// finishes a forced drain and covers the tail (Finish, eviction) of a
	// clean one.
	d.wg.Wait()
	return err
}

// evict drops terminal history past the retention bound.
func (d *Dispatcher) evict() {
	d.met.evicted.Add(float64(d.store.EvictTerminal(d.opts.RetainRuns)))
}
