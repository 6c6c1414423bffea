// Package fleet is the coordinator side of dagd's distributed execution
// plane: it puts the dispatcher's Lease / CompleteLease / ExpireLease — the
// path dagd's in-process workers also take — behind an internal JSON/HTTP
// worker API that cmd/dagworker processes consume.
//
// # Protocol
//
// A worker registers once (name, capacity and its build identity: the
// generator version and workload table it was built with) and receives a
// unique worker ID plus the coordinator's lease TTL and heartbeat interval
// (HeartbeatInterval of the TTL). Every worker may be handed any run, so a
// worker whose build differs from the coordinator's is refused at register
// (checkBuild). It then long-polls for leases: each grant transitions the
// run at the head of the next tenant's queue to running through the
// dispatcher (Lease's store.BeginNext, attributed to the worker ID) and
// starts a lease clock.
// While executing, the worker heartbeats every interval; a heartbeat
// extends every lease it names and returns two lists — runs the
// coordinator wants cancelled (a POST /v1/runs/{id}/cancel acknowledged on
// the run) and runs whose leases the coordinator already gave up on (the
// worker must abort those; a re-dispatched attempt owns them now). Results
// are reported through complete, which ends the lease.
//
// # Failure model
//
// A lease not extended within LeaseTTL expires: the sweeper hands the run
// back through dispatch.ExpireLease, and the run store decides what it
// becomes by the rule crash recovery uses — requeued (Restarts++, same WAL
// requeue record) for re-dispatch to a surviving worker, or finished
// cancelled if a cancellation was acknowledged on it. A worker that stops
// polling and heartbeating entirely is forgotten once its registration
// lapses; if it comes back (e.g. after a coordinator restart wiped the
// registry) it re-registers and resumes. Completion reports and lease
// expiry race benignly: the store's running state is the lease (see
// internal/dispatch), the loser gets dispatch.ErrNotLeased, and its report
// is refused with a conflict the worker treats as "stop working on this".
//
// The lease table here holds deadlines only: each worker's map from run
// ID to when its lease lapses, the holder being the worker whose map names
// the run. Whether a cancel is pending is read off the run in the store.
package fleet

import (
	"context"
	"errors"
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

// DefaultLeaseTTL is the lease TTL when Options leaves it zero.
const DefaultLeaseTTL = 15 * time.Second

// HeartbeatInterval is the cadence workers heartbeat at under a lease TTL:
// a fifth of it, so a lease survives four lost heartbeats in a row.
func HeartbeatInterval(ttl time.Duration) time.Duration { return ttl / 5 }

// Options configures a Manager.
type Options struct {
	// LeaseTTL is how long a granted lease survives without a heartbeat
	// before it expires. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Metrics receives the fleet instrumentation (worker count, leases
	// granted/expired, heartbeats). Nil disables it.
	Metrics *metrics.Registry
}

// worker is one registered dagworker process. Guarded by Manager.mu. The
// sweeper never prunes a worker that is polling or holds a lease.
type worker struct {
	id        string
	name      string
	capacity  int
	expiresAt time.Time            // registration lapses without polls/heartbeats
	polls     int                  // acquire calls in flight
	leases    map[string]time.Time // run ID → when its lease lapses
	lost      []string             // expired leases not yet relayed on a heartbeat
}

// Manager owns the worker registry and lease table over a remote-mode
// dispatcher, and runs the expiry sweeper.
type Manager struct {
	disp  *dispatch.Dispatcher
	store *run.Store // the dispatcher's: heartbeats read pending cancels off it
	opts  Options
	now   func() time.Time // stamps leases and registrations; tests fake it

	mu      sync.Mutex
	seq     int
	workers map[string]*worker

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
// created with Options.Remote on store. Callers must eventually call Close.
func NewManager(d *dispatch.Dispatcher, store *run.Store, opts Options) *Manager {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	m := &Manager{
		disp:    d,
		store:   store,
		opts:    opts,
		now:     time.Now,
		workers: make(map[string]*worker),
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
		leases := 0
		for _, w := range m.workers {
			leases += len(w.leases)
		}
		m.met.workers.Set(float64(len(m.workers)))
		m.met.activeLease.Set(float64(leases))
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

// checkBuild is the register handshake: every worker may be handed any run,
// so it must have been built with the generator version and workload table
// this coordinator admits runs under. The error names the difference.
func checkBuild(genVersion int, workloads []string) error {
	const rebuild = "rebuild the worker from the coordinator's source"
	if genVersion == 0 {
		return fmt.Errorf("register names no gen_version: capability lists (workloads, shapes) are retired and every worker runs every run; %s", rebuild)
	}
	if genVersion != gen.CurrentVersion {
		return fmt.Errorf("worker gen_version %d, coordinator gen_version %d; %s", genVersion, gen.CurrentVersion, rebuild)
	}
	have := make(map[string]bool, len(workloads))
	for _, name := range workloads {
		have[name] = true
	}
	var missing, extra []string
	for _, name := range sched.Workloads() {
		if !have[name] {
			missing = append(missing, name)
		}
		delete(have, name)
	}
	for name := range have {
		extra = append(extra, name)
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("worker workload table differs from the coordinator's: missing %q, extra %q; %s", missing, extra, rebuild)
	}
	return nil
}

// register admits a worker whose build passed checkBuild and returns its
// unique ID.
func (m *Manager) register(name string, capacity int) string {
	if name == "" {
		name = "worker"
	}
	if capacity <= 0 {
		capacity = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	id := fmt.Sprintf("%s-%04d", sanitizeName(name), m.seq)
	m.workers[id] = &worker{
		id:        id,
		name:      name,
		capacity:  capacity,
		expiresAt: m.deadline(),
		leases:    make(map[string]time.Time),
	}
	return id
}

// deadline is when a lease or registration touched now lapses.
func (m *Manager) deadline() time.Time { return m.now().Add(m.opts.LeaseTTL) }

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

// errAtCapacity is the lease refusal for a worker already holding its
// capacity in leases.
var errAtCapacity = fmt.Errorf("fleet: worker at capacity")

// acquire hands one ready run to the worker, blocking until ctx gives up.
// The grant is recorded in the lease table before the run is revealed, so
// the sweeper can never miss it, and the worker counts as polling
// throughout, so the sweeper never prunes it mid-poll.
func (m *Manager) acquire(ctx context.Context, workerID string) (run.Run, error) {
	m.mu.Lock()
	w, ok := m.workers[workerID]
	if !ok {
		m.mu.Unlock()
		return run.Run{}, errUnknownWorker
	}
	w.expiresAt = m.deadline()
	if len(w.leases) >= w.capacity {
		m.mu.Unlock()
		return run.Run{}, errAtCapacity
	}
	w.polls++
	m.mu.Unlock()

	// No cancel hook: a heartbeat reads the acknowledgement off the run.
	r, err := m.disp.Lease(ctx, workerID, nil, func(string) {})

	m.mu.Lock()
	defer m.mu.Unlock()
	w.polls--
	if err != nil {
		return run.Run{}, err
	}
	w.expiresAt = m.deadline()
	w.leases[r.ID] = w.expiresAt
	m.met.granted.Inc()
	return r, nil
}

// heartbeat extends the named leases and returns the runs the worker must
// cancel — those of its leases whose runs carry an acknowledged cancel in
// the store — and the leases it has lost. Unknown worker IDs report false:
// the worker re-registers and its orphaned leases expire on schedule.
func (m *Manager) heartbeat(workerID string, running []string) (cancel, lost []string, ok bool) {
	m.mu.Lock()
	w, found := m.workers[workerID]
	if !found {
		m.mu.Unlock()
		return nil, nil, false
	}
	w.expiresAt = m.deadline()
	var holding []string
	for _, id := range running {
		if _, held := w.leases[id]; held {
			w.leases[id] = w.expiresAt
			holding = append(holding, id)
		} else {
			lost = append(lost, id)
		}
	}
	// Relay expiries the worker has not named this round (it may not have
	// noticed the run ended coordinator-side).
	lost = append(lost, w.lost...)
	w.lost = nil
	m.mu.Unlock()
	// The store is read outside mu, so the store's lock never nests in it.
	for _, id := range holding {
		if r, err := m.store.Get(id); err == nil && r.CancelRequested {
			cancel = append(cancel, id)
		}
	}
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
// and cleared first: a report from a worker that does not hold the lease —
// it lost a race with expiry — gets dispatch.ErrNotLeased and must be
// discarded by the worker.
func (m *Manager) complete(workerID, runID string, state run.State, errMsg string, result *run.Result) (run.Run, error) {
	if !state.Terminal() {
		return run.Run{}, fmt.Errorf("%w: %s", errNonTerminal, state)
	}
	m.mu.Lock()
	w := m.workers[workerID]
	held := false
	if w != nil {
		_, held = w.leases[runID]
	}
	if !held {
		m.mu.Unlock()
		return run.Run{}, dispatch.ErrNotLeased
	}
	delete(w.leases, runID)
	w.expiresAt = m.deadline()
	m.mu.Unlock()
	return m.disp.CompleteLease(runID, state, errMsg, result)
}

var errUnknownWorker = fmt.Errorf("fleet: unknown worker")

// errNonTerminal refuses a completion report whose state is not terminal
// (an absent state decodes as queued); the lease stays held.
var errNonTerminal = errors.New("fleet: completion state is not terminal")

// sweep is the expiry loop: every quarter TTL it expires overdue leases
// (the store requeues their runs, or finishes them cancelled when a cancel
// was acknowledged) and forgets workers whose registrations lapsed.
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
	type victim struct{ runID, workerID string }
	var victims []victim

	m.mu.Lock()
	for wid, w := range m.workers {
		for id, expiresAt := range w.leases {
			if now.After(expiresAt) {
				victims = append(victims, victim{runID: id, workerID: wid})
				delete(w.leases, id)
				w.lost = append(w.lost, id)
			}
		}
		if len(w.leases) == 0 && w.polls == 0 && now.After(w.expiresAt) {
			delete(m.workers, wid)
		}
	}
	m.mu.Unlock()

	// Dispatcher and store calls happen outside mu: they take the store's lock
	// and may fsync, and nothing here needs the registry anymore.
	for _, v := range victims {
		m.met.expiries.Inc()
		r, err := m.disp.ExpireLease(v.runID)
		if err != nil {
			log.Printf("fleet: expiring lease of %s (worker %s): %v", v.runID, v.workerID, err)
			continue
		}
		log.Printf("fleet: lease of %s expired (worker %s stopped heartbeating); %s with restarts=%d",
			v.runID, v.workerID, r.State, r.Restarts)
	}
}
