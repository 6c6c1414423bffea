// Package fleet is the coordinator side of dagd's distributed execution
// plane: it puts the dispatcher's Lease / CompleteLease / ExpireLease — the
// path dagd's in-process workers also take — behind an internal JSON/HTTP
// worker API that cmd/dagworker processes consume.
//
// # Protocol
//
// A worker registers once (name, capacity, supported workloads) and
// receives a unique worker ID plus the coordinator's lease TTL and
// heartbeat interval. It then long-polls for leases: each grant
// transitions one run to running through the dispatcher (store.Begin,
// WAL-logged, attributed to the worker ID) and starts a lease clock.
// While executing, the worker heartbeats every interval; a heartbeat
// extends every lease it names and returns two lists — runs the
// coordinator wants cancelled (relayed from POST /v1/runs/{id}/cancel)
// and runs whose leases the coordinator already gave up on (the worker
// must abort those; a re-dispatched attempt owns them now). Results are
// reported through complete, which ends the lease.
//
// # Failure model
//
// A lease not extended within LeaseTTL expires: the sweeper requeues the
// run through the dispatcher (Restarts++, same WAL requeue record crash
// recovery writes) for re-dispatch to a surviving worker — unless a
// cancellation was pending, in which case the run completes as cancelled
// rather than restarting. A worker that stops polling and heartbeating
// entirely is forgotten once its registration lapses; if it comes back
// (e.g. after a coordinator restart wiped the registry) it re-registers
// and resumes. Completion reports and lease expiry race benignly: the
// lease table is the serialization point, and the loser's report is
// refused with a conflict the worker treats as "stop working on this".
package fleet

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// Defaults for the lease clocks. Heartbeat must stay well under half the
// TTL so one dropped heartbeat never expires a healthy worker's lease.
const (
	DefaultLeaseTTL          = 15 * time.Second
	DefaultHeartbeatInterval = 3 * time.Second
)

// Options configures a Manager.
type Options struct {
	// LeaseTTL is how long a granted lease survives without a heartbeat
	// before the run is requeued. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence workers are told to heartbeat at.
	// Zero means DefaultHeartbeatInterval. Callers must keep it under
	// LeaseTTL/2 (cmd/dagd validates at startup).
	HeartbeatInterval time.Duration
	// Metrics receives the fleet instrumentation (worker count, leases
	// granted/expired, heartbeats). Nil means a private throwaway
	// registry, so the instruments are always live.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	return o
}

// worker is one registered dagworker process. Guarded by Manager.mu.
type worker struct {
	id        string
	name      string
	capacity  int
	workloads map[string]bool // nil/empty = every workload
	shapes    map[string]bool // nil/empty = every DAG shape
	expiresAt time.Time       // registration lapses without polls/heartbeats
	leases    map[string]bool // run IDs currently leased to this worker
	lost      []string        // expired leases not yet relayed on a heartbeat
}

// lease is one outstanding grant. Guarded by Manager.mu.
type lease struct {
	workerID  string
	expiresAt time.Time
}

// Manager owns the worker registry and lease table over a remote-mode
// dispatcher, and runs the expiry sweeper.
type Manager struct {
	disp *dispatch.Dispatcher
	opts Options

	mu      sync.Mutex
	seq     int
	workers map[string]*worker
	leases  map[string]*lease // by run ID

	// cancels marks runs with a pending cancellation. It is written by
	// the dispatcher's cancel hook, which may fire under a store shard
	// lock — a sync.Map keeps that path lock-free so it can never entangle
	// with mu.
	cancels sync.Map

	stop chan struct{}
	done chan struct{}

	met instruments
}

type instruments struct {
	workers     *metrics.Gauge   // dagd_workers
	activeLease *metrics.Gauge   // dagd_active_leases
	granted     *metrics.Counter // dagd_leases_granted_total
	expiries    *metrics.Counter // dagd_lease_expiries_total
	heartbeats  *metrics.Counter // dagd_lease_heartbeats_total
}

// NewManager starts a Manager (and its expiry sweeper) over a dispatcher
// created with Options.Remote. Callers must eventually call Close.
func NewManager(d *dispatch.Dispatcher, opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		disp:    d,
		opts:    opts,
		workers: make(map[string]*worker),
		leases:  make(map[string]*lease),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	reg := opts.Metrics
	m.met = instruments{
		workers:     reg.Gauge("dagd_workers", "Registered workers with a live registration."),
		activeLease: reg.Gauge("dagd_active_leases", "Runs currently leased to workers."),
		granted:     reg.Counter("dagd_leases_granted_total", "Leases granted to workers."),
		expiries:    reg.Counter("dagd_lease_expiries_total", "Leases expired after missed heartbeats."),
		heartbeats:  reg.Counter("dagd_lease_heartbeats_total", "Heartbeats accepted from workers."),
	}
	reg.OnCollect(func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.met.workers.Set(float64(len(m.workers)))
		m.met.activeLease.Set(float64(len(m.leases)))
	})
	go m.sweep()
	return m
}

// Close stops the sweeper. Outstanding leases are left to the dispatcher's
// drain (workers complete them) or to the next boot's recovery.
func (m *Manager) Close() {
	close(m.stop)
	<-m.done
}

// LeaseTTL returns the configured lease TTL.
func (m *Manager) LeaseTTL() time.Duration { return m.opts.LeaseTTL }

// HeartbeatInterval returns the interval workers are told to heartbeat at.
func (m *Manager) HeartbeatInterval() time.Duration { return m.opts.HeartbeatInterval }

// Stats is the fleet snapshot surfaced through /healthz.
type Stats struct {
	Workers      int `json:"workers"`
	ActiveLeases int `json:"active_leases"`
}

// Stats snapshots the worker registry and lease table.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Workers: len(m.workers), ActiveLeases: len(m.leases)}
}

// register admits a worker and returns its unique ID. An unknown or empty
// workload or shape name is rejected so misconfigured workers fail loudly
// at boot instead of idling forever with an unmatchable filter.
func (m *Manager) register(name string, capacity int, workloads, shapes []string) (string, error) {
	if name == "" {
		name = "worker"
	}
	if capacity <= 0 {
		capacity = 1
	}
	var set map[string]bool
	if len(workloads) > 0 {
		set = make(map[string]bool, len(workloads))
		for _, w := range workloads {
			if _, err := sched.LookupWorkload(w); err != nil {
				return "", fmt.Errorf("unsupported workload %q", w)
			}
			if w == "" {
				w = sched.DefaultWorkload
			}
			set[w] = true
		}
	}
	var shapeSet map[string]bool
	if len(shapes) > 0 {
		shapeSet = make(map[string]bool, len(shapes))
		for _, s := range shapes {
			sh, err := gen.ParseShape(s)
			if err != nil {
				return "", fmt.Errorf("unsupported shape %q", s)
			}
			shapeSet[sh.String()] = true
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	id := fmt.Sprintf("%s-%04d", sanitizeName(name), m.seq)
	m.workers[id] = &worker{
		id:        id,
		name:      name,
		capacity:  capacity,
		workloads: set,
		shapes:    shapeSet,
		expiresAt: time.Now().Add(m.opts.LeaseTTL),
		leases:    make(map[string]bool),
	}
	return id, nil
}

// sanitizeName keeps worker IDs printable and short: they land in WAL
// records and metrics labels.
func sanitizeName(name string) string {
	name = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
	if len(name) > 48 {
		name = name[:48]
	}
	return name
}

// touchWorker refreshes a worker's registration clock; reports false when
// the ID is unknown (the worker must re-register).
func (m *Manager) touchWorker(id string) (*worker, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[id]
	if !ok {
		return nil, false
	}
	w.expiresAt = time.Now().Add(m.opts.LeaseTTL)
	return w, true
}

// errAtCapacity is the lease refusal for a worker already holding its
// capacity in leases.
var errAtCapacity = fmt.Errorf("fleet: worker at capacity")

// acquire hands one ready run to the worker, blocking until ctx gives up.
// The grant is recorded in the lease table before the run is revealed, so
// the sweeper can never miss it.
func (m *Manager) acquire(ctx context.Context, workerID string) (run.Run, error) {
	m.mu.Lock()
	w, ok := m.workers[workerID]
	if !ok {
		m.mu.Unlock()
		return run.Run{}, errUnknownWorker
	}
	w.expiresAt = time.Now().Add(m.opts.LeaseTTL)
	if len(w.leases) >= w.capacity {
		m.mu.Unlock()
		return run.Run{}, errAtCapacity
	}
	supports := w.supports()
	m.mu.Unlock()

	r, err := m.disp.Lease(ctx, workerID, supports, func(id string) {
		// Fires from store.Cancel, possibly under a shard lock: record
		// only, the next heartbeat relays it.
		m.cancels.Store(id, true)
	})
	if err != nil {
		return run.Run{}, err
	}

	m.mu.Lock()
	m.leases[r.ID] = &lease{workerID: workerID, expiresAt: time.Now().Add(m.opts.LeaseTTL)}
	// The worker may have been pruned while Lease blocked (registration
	// lapse during a long poll is impossible while polling — acquire
	// touched it above — but a coordinator-side race with sweep is cheap
	// to tolerate): re-insert its registration so the lease has an owner.
	w, ok = m.workers[workerID]
	if !ok {
		w = &worker{id: workerID, capacity: 1, leases: make(map[string]bool)}
		m.workers[workerID] = w
	}
	w.leases[r.ID] = true
	w.expiresAt = time.Now().Add(m.opts.LeaseTTL)
	m.mu.Unlock()
	m.met.granted.Inc()
	return r, nil
}

// supports returns the eligibility filter for the dispatcher's pick. Must
// be called with mu held; the returned closure reads only immutable state.
func (w *worker) supports() func(workload, shape string) bool {
	if len(w.workloads) == 0 && len(w.shapes) == 0 {
		return nil
	}
	workloads, shapes := w.workloads, w.shapes
	return func(workload, shape string) bool {
		if workload == "" {
			// Specs admitted before a default workload was stamped run the
			// registry default.
			workload = sched.DefaultWorkload
		}
		if len(workloads) > 0 && !workloads[workload] {
			return false
		}
		return len(shapes) == 0 || shapes[shape]
	}
}

// heartbeat extends the named leases and returns the runs the worker must
// cancel and the leases it has lost. Unknown worker IDs report false —
// the worker re-registers and its orphaned leases expire on schedule.
func (m *Manager) heartbeat(workerID string, running []string) (cancel, lost []string, ok bool) {
	m.mu.Lock()
	w, found := m.workers[workerID]
	if !found {
		m.mu.Unlock()
		return nil, nil, false
	}
	now := time.Now()
	w.expiresAt = now.Add(m.opts.LeaseTTL)
	for _, id := range running {
		if l, held := m.leases[id]; held && l.workerID == workerID {
			l.expiresAt = now.Add(m.opts.LeaseTTL)
			if _, pending := m.cancels.Load(id); pending {
				cancel = append(cancel, id)
			}
		} else {
			lost = append(lost, id)
		}
	}
	// Relay expiries the worker has not named this round (it may not have
	// noticed the run ended coordinator-side).
	lost = append(lost, w.lost...)
	w.lost = nil
	m.mu.Unlock()
	m.met.heartbeats.Inc()
	sort.Strings(lost)
	return cancel, dedupe(lost), true
}

func dedupe(ids []string) []string {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// complete records a worker's terminal report. The lease table is checked
// and cleared first: a report racing an expiry loses (errNotLeased) and
// must be discarded by the worker.
func (m *Manager) complete(workerID, runID string, state run.State, errMsg string, result *run.Result) (run.Run, error) {
	if !state.Terminal() {
		return run.Run{}, fmt.Errorf("fleet: non-terminal completion state %s", state)
	}
	m.mu.Lock()
	l, held := m.leases[runID]
	if !held || l.workerID != workerID {
		m.mu.Unlock()
		return run.Run{}, errNotLeased
	}
	delete(m.leases, runID)
	if w, ok := m.workers[workerID]; ok {
		delete(w.leases, runID)
		w.expiresAt = time.Now().Add(m.opts.LeaseTTL)
	}
	m.mu.Unlock()
	m.cancels.Delete(runID)
	return m.disp.CompleteLease(runID, state, errMsg, result)
}

var (
	errUnknownWorker = fmt.Errorf("fleet: unknown worker")
	errNotLeased     = fmt.Errorf("fleet: run not leased to this worker")
)

// sweep is the expiry loop: every quarter TTL it expires overdue leases
// (requeueing their runs, or completing them as cancelled when a cancel
// was already pending — restarting a run the user asked to stop would be
// worse than failing it) and forgets workers whose registrations lapsed.
func (m *Manager) sweep() {
	defer close(m.done)
	t := time.NewTicker(m.opts.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		m.sweepOnce(time.Now())
	}
}

// sweepOnce expires overdue state as of now. Split out for tests.
func (m *Manager) sweepOnce(now time.Time) {
	type victim struct {
		runID     string
		workerID  string
		cancelled bool
	}
	var victims []victim

	m.mu.Lock()
	for id, l := range m.leases {
		if now.After(l.expiresAt) {
			_, pending := m.cancels.Load(id)
			victims = append(victims, victim{runID: id, workerID: l.workerID, cancelled: pending})
			delete(m.leases, id)
			if w, ok := m.workers[l.workerID]; ok {
				delete(w.leases, id)
				w.lost = append(w.lost, id)
			}
		}
	}
	for id, w := range m.workers {
		if len(w.leases) == 0 && now.After(w.expiresAt) {
			delete(m.workers, id)
		}
	}
	m.mu.Unlock()

	// Dispatcher and store calls happen outside mu: they take shard locks
	// and may fsync, and nothing here needs the registry anymore.
	for _, v := range victims {
		m.met.expiries.Inc()
		if v.cancelled {
			m.cancels.Delete(v.runID)
			if _, err := m.disp.CompleteLease(v.runID, run.StateCancelled,
				fmt.Sprintf("worker %s lost its lease with a cancellation pending", v.workerID), nil); err != nil {
				log.Printf("fleet: finishing cancelled run %s after lease expiry: %v", v.runID, err)
			}
			continue
		}
		r, err := m.disp.ExpireLease(v.runID)
		if err != nil {
			log.Printf("fleet: expiring lease of %s (worker %s): %v", v.runID, v.workerID, err)
			continue
		}
		log.Printf("fleet: lease of %s expired (worker %s stopped heartbeating); requeued with restarts=%d",
			v.runID, v.workerID, r.Restarts)
	}
}
