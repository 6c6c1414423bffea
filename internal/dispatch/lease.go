package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// This file is the run lifecycle after admission: Lease hands a queued run
// to a worker, complete records the worker's outcome, ExpireLease gives up
// on a worker that went silent. The in-process workers (work) and
// internal/fleet (through CompleteLease) are the two callers; the
// scheduling policy (strict priority between classes, weighted deficit
// round-robin within one, in-flight caps) is the one pick inside Lease, so
// fairness guarantees hold no matter where execution happens.

// work is one in-process worker: lease, execute, complete, until the
// queues close and drain. It leases under the worker name "" and supports
// every workload, so an embedded run's snapshot carries no worker.
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
		res, runErr := run.Execute(ctx, r.Spec, d.opts.DefaultRunWorkers)
		cancel()
		// The lease is this goroutine's own and never expires, so complete
		// cannot lose a race; store failures are logged inside.
		_, _ = d.complete(r.ID, res, runErr)
	}
}

// Lease blocks until a queued run matching the worker's supported
// workloads is scheduled to it, then transitions the run to running
// (store.Begin, attributing it to worker; the WAL-backed store logs the
// grant without waiting for it to be durable) and returns the running
// snapshot. It returns ctx.Err() when the caller gives up waiting
// (long-poll deadline), ErrShuttingDown once a drain has begun and the
// queues are empty.
//
// supports filters which queue entries this worker may take, by workload
// name and DAG shape (nil accepts everything); a tenant whose queued work
// is entirely unsupported is skipped without losing its rotation credit.
// onCancel is the run's cancel hook: the store invokes it (possibly under
// a store shard lock — it must not call back into the dispatcher) when
// cancellation is requested. An in-process worker cancels the run's
// context; the fleet layer relays it to the worker on its next heartbeat.
func (d *Dispatcher) Lease(ctx context.Context, worker string, supports func(workload, shape string) bool, onCancel func(id string)) (run.Run, error) {
	stop := context.AfterFunc(ctx, func() {
		// Lock-step with the wait loop below so a cancellation arriving
		// between the ctx.Err() check and cond.Wait() is never lost.
		d.mu.Lock()
		defer d.mu.Unlock()
		d.cond.Broadcast()
	})
	defer stop()

	for {
		d.mu.Lock()
		var picked queued
		var tq *tenantQueue
		for {
			if err := ctx.Err(); err != nil {
				d.mu.Unlock()
				return run.Run{}, err
			}
			found := false
			for _, cl := range d.classes {
				if tq, picked, found = cl.pick(supports); found {
					break
				}
			}
			if found {
				break
			}
			// A drain keeps serving leases until the queues are empty:
			// queued runs stuck behind an in-flight cap still count as
			// pending work, and a release will broadcast and re-run the
			// pick. Leased runs finishing is drain's concern, not Lease's.
			if d.closed && d.queuedLocked() == 0 {
				d.mu.Unlock()
				return run.Run{}, ErrShuttingDown
			}
			d.cond.Wait()
		}
		tq.inflight++
		d.leased[picked.id] = &leaseEntry{tq: tq, workload: picked.workload, shape: picked.shape}
		now := time.Now()
		d.mu.Unlock()

		// Begin outside mu: the WAL-backed store appends its begin record
		// here (a write under the run's shard lock, not an fsync).
		r, err := d.store.Begin(picked.id, now, worker, func() { onCancel(picked.id) })
		if err != nil {
			if errors.Is(err, run.ErrNotQueued) || errors.Is(err, run.ErrNotFound) {
				// Cancelled while queued and popped before Cancel could
				// unlink it (or rolled back): release the claim and pick
				// again.
				d.mu.Lock()
				delete(d.leased, picked.id)
				tq.inflight--
				d.cond.Broadcast()
				d.mu.Unlock()
				continue
			}
			// Durable-append failure with the in-memory transition standing
			// (see wal.Store.Begin): lease it anyway — abandoning the run
			// now would strand it in running forever, with every Await
			// parked on it. Only its begin record may be missing from the
			// log.
			log.Printf("dispatch: recording lease of %s by %q: %v (leasing anyway)", picked.id, worker, err)
		}
		// Only a granted lease counts as a queue wait.
		d.met.queueWait.With(tq.cfg.Name).Observe(now.Sub(picked.at).Seconds())
		return r, nil
	}
}

// complete records the outcome of a leased run — runErr is what
// store.Finish classifies: nil → succeeded, a context cancellation →
// cancelled, anything else → failed — then releases the lease's in-flight
// slot and evicts history past the retention bound. It returns
// ErrNotLeased when the run has no outstanding lease.
func (d *Dispatcher) complete(id string, result *run.Result, runErr error) (run.Run, error) {
	d.mu.Lock()
	le, ok := d.leased[id]
	if !ok {
		d.mu.Unlock()
		return run.Run{}, ErrNotLeased
	}
	delete(d.leased, id)
	d.mu.Unlock()

	fr, ferr := d.store.Finish(id, result, runErr)
	if ferr != nil && !errors.Is(ferr, run.ErrNotRunning) {
		// A WAL append failure: the outcome is recorded in memory but may
		// not survive a restart. Nothing the dispatcher can do beyond log.
		log.Printf("dispatch: recording completion of %s: %v", id, ferr)
	}
	if ferr == nil {
		d.met.completed.With(fr.Spec.Tenant, fr.State.String()).Inc()
		if fr.StartedAt != nil && fr.FinishedAt != nil {
			d.met.runDuration.With(fr.Spec.Workload, fr.Spec.Shape.String()).
				Observe(fr.FinishedAt.Sub(*fr.StartedAt).Seconds())
		}
		if result != nil {
			d.met.runNodes.With(fr.Spec.Workload).Add(float64(result.Nodes))
		}
	}
	d.release(le.tq, true)
	d.evict()
	return fr, ferr
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

// ExpireLease abandons a leased run whose worker stopped heartbeating:
// the run is requeued through the store (Restarts++, WAL-logged with the
// same requeue record crash recovery writes) and re-enqueued at the tail
// of its tenant's queue for re-dispatch, bypassing queue-depth quotas the
// same way crash recovery does — the work was already admitted once.
// Returns ErrNotLeased when the run's completion won the race.
func (d *Dispatcher) ExpireLease(id string) (run.Run, error) {
	d.mu.Lock()
	le, ok := d.leased[id]
	if !ok {
		d.mu.Unlock()
		return run.Run{}, ErrNotLeased
	}
	delete(d.leased, id)
	d.mu.Unlock()

	r, err := d.store.Requeue(id)
	if err != nil {
		// The run left the running state some other way (e.g. it was
		// deleted); just surrender the slot.
		d.release(le.tq, false)
		return r, err
	}
	d.mu.Lock()
	le.tq.inflight--
	le.tq.queue = append(le.tq.queue, queued{id: id, at: time.Now(), workload: le.workload, shape: le.shape})
	d.cond.Broadcast()
	d.mu.Unlock()
	d.met.redispatched.With(r.Spec.Tenant).Inc()
	return r, nil
}
