// Package core is dagd's composition root: Service wires a run store
// (in-memory or WAL-backed), the dispatcher, the worker fleet (remote mode)
// and the metrics registry together. The types it handles are the real
// ones — run.Spec, run.Run, tenant.Config — imported by callers from the
// packages that define them. Every layer reports its load into the one
// metrics registry, rendered at GET /metrics.
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
	// CompactThreshold is how many records the WAL accumulates before it
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
	// before its run is requeued. Workers heartbeat at a fifth of it.
	LeaseTTL time.Duration
}

// Service is what dagd serves over HTTP: a run store (in-memory, or
// WAL-backed when ServiceOptions.DataDir is set), the dispatcher leasing
// submitted runs to in-process or remote workers, and — in remote mode —
// the fleet manager those workers talk to. Store and Dispatcher are the
// ones NewService built; the HTTP layer calls them directly (reads and
// Await on the store, Submit/Cancel/Draining on the dispatcher).
type Service struct {
	Store      *run.Store
	Dispatcher *dispatch.Dispatcher

	fleet     *fleet.Manager // nil unless ServiceOptions.Remote
	metrics   *metrics.Registry
	recovered int
}

// NewService builds a Service and starts its dispatcher; with a
// DataDir it first replays the WAL, restoring history and re-admitting
// interrupted runs. Callers must eventually call Shutdown, which also
// closes the store. It fails only when the data dir cannot be opened or
// its log chain is corrupt.
func NewService(opts ServiceOptions) (*Service, error) {
	registry, err := tenant.NewRegistry(opts.Tenants)
	if err != nil {
		return nil, err
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	var store *run.Store
	var recovered []run.Run
	if opts.DataDir != "" {
		store, recovered, err = wal.Open(opts.DataDir, wal.Options{
			Fsync:            opts.Fsync,
			CompactThreshold: opts.CompactThreshold,
			Metrics:          opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
	} else {
		store = run.NewMemStore()
	}
	disp := dispatch.New(store, dispatch.Options{
		QueueDepth:        opts.QueueDepth,
		Dispatchers:       opts.Dispatchers,
		DefaultRunWorkers: opts.DefaultRunWorkers,
		RetainRuns:        opts.RetainRuns,
		Tenants:           registry,
		Metrics:           opts.Metrics,
		Remote:            opts.Remote,
	})
	svc := &Service{
		Store:      store,
		Dispatcher: disp,
		metrics:    opts.Metrics,
		recovered:  len(recovered),
	}
	if opts.Remote {
		svc.fleet = fleet.NewManager(disp, store, fleet.Options{
			LeaseTTL: opts.LeaseTTL,
			Metrics:  opts.Metrics,
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
