// Package core is dagd's composition root: Service wires a run store
// (in-memory or WAL-backed), the dispatcher, the worker fleet (remote mode)
// and the metrics registry together. The types it handles are the real
// ones — run.Spec, run.Run, tenant.Config, dispatch.TenantStats — imported
// by callers from the packages that define them.
package core

import (
	"context"
	"net/http"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/fleet"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// ServiceOptions sizes a Service. Zero values take the defaults of the
// layer the field is passed to: dispatch.Options, wal.Options (the fields
// that only mean something with DataDir) and fleet.Options (the ones that
// only mean something with Remote).
type ServiceOptions struct {
	// QueueDepth bounds each tenant's queue unless its config sets a quota.
	QueueDepth int
	// Dispatchers is how many runs execute concurrently in-process.
	Dispatchers int
	// DefaultRunWorkers is the scheduler pool size for specs that leave
	// Workers at 0.
	DefaultRunWorkers int
	// DefaultWorkload is stamped onto specs that name no workload ("" =
	// sched.DefaultWorkload).
	DefaultWorkload string
	// RetainRuns bounds how many terminal runs are kept, oldest-finished
	// evicted first (negative = unlimited).
	RetainRuns int
	// DataDir enables the WAL-backed run store rooted at this directory:
	// every state transition is logged, and on the next boot terminal runs
	// are restored as history while interrupted runs are re-admitted.
	// Empty keeps the in-memory store (a restart loses everything).
	DataDir string
	// Fsync makes a WAL append wait for its group-committed fsync.
	Fsync bool
	// WALShards is the number of WAL shard directories (0 = adopt the data
	// dir's manifest). A value that disagrees with an existing manifest
	// fails NewService with wal.ErrShardCountMismatch.
	WALShards int
	// CompactThreshold is how many records a shard accumulates before it
	// is compacted into a snapshot (negative = never).
	CompactThreshold int
	// Tenants is the admission policy (dagd -tenants). Nil means only the
	// catch-all default tenant exists; invalid configs fail NewService
	// with tenant.ErrInvalidConfig.
	Tenants []tenant.Config
	// Metrics is the registry every layer instruments into. Nil means
	// NewService creates its own, so GET /metrics always has one.
	Metrics *metrics.Registry
	// Remote leaves execution to external dagworker processes: no
	// in-process workers are started and runs are leased out over the
	// fleet worker API (served by FleetHandler).
	Remote bool
	// LeaseTTL is how long a worker lease survives without a heartbeat
	// before its run is requeued.
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence workers are told to heartbeat at;
	// it must stay under LeaseTTL/2.
	HeartbeatInterval time.Duration
}

// ServiceStats is a snapshot of service load for health reporting.
type ServiceStats struct {
	Runs        int            `json:"runs"`
	ByState     map[string]int `json:"by_state"`
	QueueLen    int            `json:"queue_len"`
	QueueDepth  int            `json:"queue_depth"`
	Dispatchers int            `json:"dispatchers"`
	// Recovered is how many interrupted runs were re-admitted to the queue
	// when this process booted from an existing data dir.
	Recovered int `json:"recovered,omitempty"`
	// Tenants is each tenant's scheduling snapshot: queue length, in-flight
	// count, and admission counters, keyed by tenant name.
	Tenants map[string]dispatch.TenantStats `json:"tenants,omitempty"`
	// Fleet is the distributed-execution snapshot: registered workers and
	// active leases. Present only when the service runs in remote mode.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

// Service is what dagd serves over HTTP: a run store (in-memory, or
// WAL-backed when ServiceOptions.DataDir is set), the dispatcher leasing
// submitted runs to in-process or remote workers, and — in remote mode —
// the fleet manager those workers talk to. Store and Dispatcher are the
// ones NewService built; the HTTP layer calls them directly (reads and
// Await on the store, Submit/Cancel/Draining on the dispatcher).
type Service struct {
	Store      run.Store
	Dispatcher *dispatch.Dispatcher

	fleet           *fleet.Manager // nil unless ServiceOptions.Remote
	metrics         *metrics.Registry
	defaultWorkload string
	recovered       int
}

// NewService builds a Service and starts its dispatcher; with a
// DataDir it first replays the WAL, restoring history and re-admitting
// interrupted runs. Callers must eventually call Shutdown, which also
// closes the store. It fails only when the data dir cannot be opened or
// its log chain is corrupt.
func NewService(opts ServiceOptions) (*Service, error) {
	if opts.DefaultWorkload == "" {
		opts.DefaultWorkload = sched.DefaultWorkload
	}
	registry, err := tenant.NewRegistry(opts.Tenants)
	if err != nil {
		return nil, err
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	var store run.Store
	var recovered []run.Run
	if opts.DataDir != "" {
		ws, rec, err := wal.Open(opts.DataDir, wal.Options{
			Fsync:            opts.Fsync,
			Shards:           opts.WALShards,
			CompactThreshold: opts.CompactThreshold,
			Metrics:          opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		store, recovered = ws, rec
	} else {
		store = run.NewMemStore()
	}
	disp := dispatch.New(store, dispatch.Options{
		QueueDepth:        opts.QueueDepth,
		Dispatchers:       opts.Dispatchers,
		DefaultRunWorkers: opts.DefaultRunWorkers,
		DefaultWorkload:   opts.DefaultWorkload,
		RetainRuns:        opts.RetainRuns,
		Tenants:           registry,
		Metrics:           opts.Metrics,
		Remote:            opts.Remote,
	})
	if len(recovered) > 0 {
		disp.Recover(recovered)
	}
	svc := &Service{
		Store:           store,
		Dispatcher:      disp,
		metrics:         opts.Metrics,
		defaultWorkload: opts.DefaultWorkload,
		recovered:       len(recovered),
	}
	if opts.Remote {
		svc.fleet = fleet.NewManager(disp, fleet.Options{
			LeaseTTL:          opts.LeaseTTL,
			HeartbeatInterval: opts.HeartbeatInterval,
			Metrics:           opts.Metrics,
		})
	}

	// Service-level series: scheduler process-lifetime tallies as
	// func-backed counters, a constant for how many interrupted runs this
	// boot re-admitted, and the store's runs-by-state as a scrape-time
	// gauge (all five states zero-filled so dashboards never see gaps).
	opts.Metrics.CounterFunc("dagd_sched_nodes_executed_total",
		"DAG nodes retired by the work-stealing scheduler across all runs.",
		func() float64 { return float64(sched.NodesExecuted()) })
	opts.Metrics.CounterFunc("dagd_sched_steals_total",
		"Successful work-stealing operations across all runs.",
		func() float64 { return float64(sched.Steals()) })
	opts.Metrics.GaugeFunc("dagd_recovered_runs",
		"Interrupted runs re-admitted from the WAL when this process booted.",
		func() float64 { return float64(svc.recovered) })
	byState := opts.Metrics.GaugeVec("dagd_runs", "Runs in the store, by lifecycle state.", "state")
	opts.Metrics.OnCollect(func() {
		counts := svc.Store.CountByState()
		for _, st := range []run.State{run.StateQueued, run.StateRunning, run.StateSucceeded, run.StateFailed, run.StateCancelled} {
			byState.With(st.String()).Set(float64(counts[st]))
		}
	})
	return svc, nil
}

// Metrics returns the service's metric registry — the families every layer
// below registered into — for the HTTP layer to render at GET /metrics.
func (s *Service) Metrics() *metrics.Registry { return s.metrics }

// DefaultWorkloadName reports which workload the service stamps onto specs
// that name none (surfaced by GET /v1/workloads).
func (s *Service) DefaultWorkloadName() string { return s.defaultWorkload }

// Recovered reports how many interrupted runs this process re-admitted on
// boot (always 0 for the in-memory store).
func (s *Service) Recovered() int { return s.recovered }

// FleetHandler returns the internal worker API (register/lease/heartbeat/
// complete under /fleet/v1/) when the service runs in remote mode, nil when
// it executes embedded. dagd serves it on its own listener, never the
// public one.
func (s *Service) FleetHandler() http.Handler {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.Handler()
}

// Stats snapshots current service load. QueueLen and the per-tenant table
// come from one dispatch.Snapshot, so QueueLen always equals the sum of the
// per-tenant Queued values — read separately, the counters can move in
// between and hand /healthz an inconsistent answer.
func (s *Service) Stats() ServiceStats {
	byState := make(map[string]int)
	total := 0
	for state, n := range s.Store.CountByState() {
		byState[state.String()] = n
		total += n
	}
	snap := s.Dispatcher.Snapshot()
	stats := ServiceStats{
		Runs:        total,
		ByState:     byState,
		QueueLen:    snap.QueueLen,
		QueueDepth:  s.Dispatcher.QueueDepth(),
		Dispatchers: s.Dispatcher.Dispatchers(),
		Recovered:   s.recovered,
		Tenants:     snap.Tenants,
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		stats.Fleet = &fs
	}
	return stats
}

// Shutdown stops accepting runs, drains the dispatcher (if ctx expires
// first, in-process runs are force-cancelled and remote leases abandoned),
// then closes the store so a WAL backend seals its active segment. The
// dispatcher error wins when both fail.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.Dispatcher.Shutdown(ctx)
	// The fleet sweeper outlives the drain: if a worker dies mid-drain its
	// leases must still expire and requeue so a survivor can finish them.
	if s.fleet != nil {
		s.fleet.Close()
	}
	if cerr := s.Store.Close(); err == nil {
		err = cerr
	}
	return err
}
