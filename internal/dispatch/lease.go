package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// This file is the run lifecycle after admission: Lease hands a queued run
// to a worker, complete records the worker's outcome, ExpireLease gives up
// on a worker that went silent. The in-process workers (work) and
// internal/fleet (through CompleteLease) are the two callers; the
// scheduling policy (strict priority between classes, weighted deficit
// round-robin within one, in-flight caps) is the one pick inside Lease, so
// fairness guarantees hold no matter where execution happens.

// execute is what a worker runs a leased run with; tests wrap it to fail
// runs the built-in workloads never fail.
var execute = run.Execute

// work is one in-process worker: lease, execute, complete, until the
// queues close and drain. It leases under the worker name "", so an
// embedded run's snapshot carries no worker.
func (d *Dispatcher) work() {
	defer d.wg.Done()
	for {
		// One run at a time, so the context made before the lease is the
		// leased run's: its cancel is the hook store.Cancel invokes.
		ctx, cancel := context.WithCancel(d.baseCtx)
		// The wait itself is not under baseCtx: after a forced shutdown the
		// queued remainder must still be leased (and finish as cancelled),
		// not stranded in the queues.
		r, err := d.Lease(context.Background(), "", nil, func(string) { cancel() })
		if err != nil {
			cancel()
			return // ErrShuttingDown: closed and drained
		}
		res, runErr := execute(ctx, r.Spec, d.opts.DefaultRunWorkers)
		cancel()
		// The lease is this goroutine's own and never expires, so complete
		// cannot lose a race; store failures are logged inside.
		_, _ = d.complete(r.ID, res, runErr)
	}
}

// Lease blocks until a queued run is scheduled to the worker, then
// transitions the run to running (attributing it to worker; the grant is
// not logged) and returns the running snapshot, in one store.BeginNext. It
// returns ctx.Err() when the caller gives up waiting (long-poll deadline),
// ErrShuttingDown once a drain has begun and the queues are empty.
//
// The third parameter is retired and ignored: it was a per-worker
// capability filter, and every worker now runs every run (internal/fleet
// checks a worker's build at register instead). Pass nil.
//
// onCancel is the run's cancel hook: the store invokes it (possibly under
// the store's lock — it must not call back into the dispatcher) when
// cancellation is requested. An in-process worker cancels the run's
// context; the fleet layer passes a no-op, since its heartbeat reads the
// acknowledgement off the run (run.Run.CancelRequested).
func (d *Dispatcher) Lease(ctx context.Context, worker string, _ func(workload, shape string) bool, onCancel func(id string)) (run.Run, error) {
	var picked *tenantQueue
	r, queuedAt, err := d.store.BeginNext(ctx, func() *run.Queue {
		for _, cl := range d.classes {
			if picked = cl.pick(); picked != nil {
				return picked.q
			}
		}
		return nil
	}, worker, onCancel)
	if errors.Is(err, run.ErrDraining) {
		return run.Run{}, ErrShuttingDown
	}
	if err != nil {
		return run.Run{}, err
	}
	d.met.queueWait.With(picked.cfg.Name).Observe(r.DispatchedAt.Sub(queuedAt).Seconds())
	return r, nil
}

// complete records the outcome of a leased run — runErr is what
// store.Finish classifies: nil → succeeded, a context cancellation →
// cancelled, anything else → failed — then settles it (see finished). It
// returns ErrNotLeased when the store does not have the run running.
func (d *Dispatcher) complete(id string, result *run.Result, runErr error) (run.Run, error) {
	fr, err := d.store.Finish(id, result, runErr)
	if errors.Is(err, run.ErrNotRunning) || errors.Is(err, run.ErrNotFound) {
		return run.Run{}, ErrNotLeased
	}
	if err != nil {
		// A WAL append failure: the outcome is recorded in memory but may
		// not survive a restart. Nothing the dispatcher can do beyond log.
		log.Printf("dispatch: recording completion of %s: %v", id, err)
	}
	d.finished(fr)
	return fr, err
}

// finished settles a leased run the store just made terminal: it counts
// the outcome and evicts history past the retention bound.
func (d *Dispatcher) finished(fr run.Run) {
	d.met.completed.With(fr.Spec.Tenant, fr.State.String()).Inc()
	if fr.StartedAt != nil && fr.FinishedAt != nil {
		d.met.runDuration.With(fr.Spec.Workload, fr.Spec.Shape.String()).
			Observe(fr.FinishedAt.Sub(*fr.StartedAt).Seconds())
	}
	if fr.Result != nil {
		d.met.runNodes.With(fr.Spec.Workload).Add(float64(fr.Result.Nodes))
	}
	d.evict()
}

// CompleteLease records a worker-reported outcome for a leased run and
// releases its lease: state must be terminal, and errMsg carries the
// worker-side error text for failed and cancelled outcomes. It returns
// ErrNotLeased when the run has no outstanding lease — the loser of a
// completion-vs-expiry race — in which case the report is discarded and
// the re-dispatched attempt proceeds elsewhere.
func (d *Dispatcher) CompleteLease(id string, state run.State, errMsg string, result *run.Result) (run.Run, error) {
	// Reconstitute the worker's outcome as the error complete expects.
	var runErr error
	switch state {
	case run.StateSucceeded:
	case run.StateCancelled:
		if errMsg == "" {
			runErr = context.Canceled
		} else {
			runErr = fmt.Errorf("%s: %w", errMsg, context.Canceled)
		}
	default:
		if errMsg == "" {
			errMsg = "worker reported failure"
		}
		runErr = errors.New(errMsg)
	}
	return d.complete(id, result, runErr)
}

// ExpireLease abandons a leased run whose worker stopped heartbeating; the
// store decides what it becomes (run.Store.Requeue). A run that ends
// cancelled is settled as complete settles any outcome; a requeued one
// (Restarts++) is back at the tail of its tenant's queue, past quotas as a
// recovered run is, since the work was admitted once.
// Returns ErrNotLeased when the store does not have the run running (its
// completion won the race).
func (d *Dispatcher) ExpireLease(id string) (run.Run, error) {
	r, err := d.store.Requeue(id)
	if errors.Is(err, run.ErrNotRunning) || errors.Is(err, run.ErrNotFound) {
		return run.Run{}, ErrNotLeased
	}
	if err != nil {
		// As in complete: the outcome stands in memory, only its record
		// may be missing from the log. Settle it regardless.
		log.Printf("dispatch: recording expiry of %s: %v", id, err)
	}
	if r.State.Terminal() {
		d.finished(r)
		return r, err
	}
	d.met.redispatched.With(r.Spec.Tenant).Inc()
	return r, err
}
