// Command dagworker is the execution half of dagd's distributed mode: it
// registers with a coordinator's fleet listener (dagd -fleet-addr),
// long-polls for run leases, executes each run through the same
// work-stealing scheduler dagd uses embedded, and reports results back.
//
// Usage:
//
//	dagworker -coordinator http://127.0.0.1:8081
//	dagworker -coordinator http://coord:8081 -capacity 4
//
// At registration the worker sends its build identity — the generator
// version and workload table compiled into it — and the coordinator refuses
// a worker whose build differs from its own: every worker may be handed any
// run. A refused worker exits 1 with the coordinator's message.
//
// While a run executes, the worker heartbeats on the interval the
// coordinator announced at registration; each heartbeat extends the leases
// of every run it still holds and relays coordinator-side decisions back —
// runs to cancel (the worker aborts them and reports cancelled) and leases
// already given up on (the worker aborts them and reports nothing, since a
// re-dispatched attempt owns them now).
//
// SIGINT/SIGTERM drain: the worker stops leasing, finishes its in-flight
// runs, reports them, and exits. A coordinator restart is survived by
// re-registering with backoff; in-flight work from the old registration is
// abandoned, because the restarted coordinator has already recovered those
// runs as queued.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/fleet"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "base URL of the coordinator's fleet listener, e.g. http://127.0.0.1:8081 (required)")
		name        = flag.String("name", "", "worker name, the prefix of the coordinator-assigned worker ID (empty = hostname)")
		capacity    = flag.Int("capacity", 1, "runs executed concurrently")
		runWorkers  = flag.Int("run-workers", 0, "default scheduler pool size per run (0 = NumCPU); a run with work below the serial grain ("+strconv.Itoa(sched.SerialGrain)+") is walked on one goroutine instead")
	)
	flag.Parse()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "dagworker: -coordinator is required")
		os.Exit(2)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "dagworker"
		}
		*name = host
	}
	if *capacity < 1 {
		*capacity = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	w := &worker{
		client:     fleet.NewClient(strings.TrimRight(*coordinator, "/")),
		name:       *name,
		capacity:   *capacity,
		runWorkers: *runWorkers,
		running:    make(map[string]*task),
	}
	if err := w.run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dagworker:", err)
		os.Exit(1)
	}
}

// task is one in-flight run. cancel aborts its execution context; lost
// (guarded by worker.mu) marks that the lease is gone and the result must
// be discarded instead of reported.
type task struct {
	cancel context.CancelFunc
	lost   bool
}

// worker owns one registration with the coordinator and up to capacity
// concurrent executions.
type worker struct {
	client     *fleet.Client
	name       string
	capacity   int
	runWorkers int

	mu        sync.Mutex
	id        string // current worker ID; "" = must (re-)register
	heartbeat time.Duration
	running   map[string]*task // run ID → in-flight execution

	inflight sync.WaitGroup
}

// reportTimeout bounds every non-lease coordinator call (register,
// heartbeat, complete); they are small posts that either answer fast or
// should be retried.
const reportTimeout = 10 * time.Second

func (w *worker) run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}

	// Heartbeats outlive ctx on purpose: after SIGTERM the in-flight runs
	// still hold leases that must be extended until they finish reporting.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(hbStop, hbDone)

	sem := make(chan struct{}, w.capacity)
	backoff := time.Second
	var refused error // a re-registration the coordinator refused: exit 1 after draining
lease:
	for {
		select {
		case <-ctx.Done():
			break lease
		case sem <- struct{}{}:
		}
		workerID := w.currentID()
		r, err := w.client.Lease(ctx, workerID, defaultLeaseWait)
		switch {
		case err == nil:
			backoff = time.Second
			log.Printf("dagworker: leased run %s (tenant %s, workload %s, restarts %d)",
				r.ID, r.Spec.Tenant, r.Spec.Workload, r.Restarts)
			w.inflight.Add(1)
			go func() {
				defer w.inflight.Done()
				defer func() { <-sem }()
				w.execute(workerID, r)
			}()
			continue // keep sem held by the executor
		case errors.Is(err, fleet.ErrNoWork):
			backoff = time.Second
		case errors.Is(err, fleet.ErrDraining):
			log.Printf("dagworker: coordinator draining, exiting")
			<-sem
			break lease
		case errors.Is(err, fleet.ErrUnregistered):
			log.Printf("dagworker: coordinator forgot us (restart?), re-registering")
			if rerr := w.reregister(ctx, workerID); rerr != nil {
				if errors.Is(rerr, fleet.ErrRefused) {
					refused = rerr
				}
				<-sem
				break lease
			}
		case ctx.Err() != nil:
			<-sem
			break lease
		default:
			// Coordinator unreachable or 5xx: back off and keep trying —
			// workers outlive coordinator hiccups.
			log.Printf("dagworker: lease poll failed: %v (retrying in %v)", err, backoff)
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 10*time.Second {
				backoff = 10 * time.Second
			}
		}
		<-sem
	}

	log.Printf("dagworker: draining %d in-flight runs", len(w.snapshotRunning()))
	w.inflight.Wait()
	close(hbStop)
	<-hbDone
	return refused
}

// defaultLeaseWait mirrors the server's default long-poll window.
const defaultLeaseWait = 10 * time.Second

func (w *worker) currentID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// interval is the heartbeat cadence the coordinator announced, falling back
// to the one under the default lease TTL if it announced none usable.
func (w *worker) interval() time.Duration {
	w.mu.Lock()
	ivl := w.heartbeat
	w.mu.Unlock()
	if ivl <= 0 {
		ivl = fleet.HeartbeatInterval(fleet.DefaultLeaseTTL)
	}
	return ivl
}

func (w *worker) snapshotRunning() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.running))
	for id := range w.running {
		ids = append(ids, id)
	}
	return ids
}

// register acquires a fresh worker ID, retrying with backoff until the
// coordinator answers or ctx ends. A refusal (fleet.ErrRefused: this build
// differs from the coordinator's) is returned at once; no retry can cure it.
func (w *worker) register(ctx context.Context) error {
	backoff := 500 * time.Millisecond
	for {
		cctx, cancel := context.WithTimeout(context.Background(), reportTimeout)
		resp, err := w.client.Register(cctx, fleet.RegisterRequest{
			Name:       w.name,
			Capacity:   w.capacity,
			GenVersion: gen.CurrentVersion,
			Workloads:  sched.Workloads(),
		})
		cancel()
		if err == nil {
			ttl := time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			w.mu.Lock()
			w.id = resp.WorkerID
			w.heartbeat = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			if w.heartbeat <= 0 {
				w.heartbeat = fleet.HeartbeatInterval(ttl)
			}
			w.mu.Unlock()
			log.Printf("dagworker: registered as %s (lease ttl %v, heartbeat %v)", resp.WorkerID, ttl, w.heartbeat)
			return nil
		}
		if errors.Is(err, fleet.ErrRefused) {
			return fmt.Errorf("coordinator refused registration: %w", err)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("registering with %s: %w", w.name, err)
		}
		log.Printf("dagworker: register failed: %v (retrying in %v)", err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// reregister replaces a registration the coordinator no longer recognizes
// (it restarted, or our registration lapsed). In-flight work from the old
// registration is abandoned as lost first: the coordinator has already
// recovered or requeued those runs, so another attempt owns them now.
// staleID guards against two callers (lease loop and heartbeat loop)
// racing: only the first to observe the stale ID re-registers.
func (w *worker) reregister(ctx context.Context, staleID string) error {
	w.mu.Lock()
	if w.id != staleID {
		// Someone else already replaced it.
		w.mu.Unlock()
		return nil
	}
	w.id = ""
	w.abandonLocked("lease died with old registration")
	w.mu.Unlock()
	return w.register(ctx)
}

// abandonLocked aborts every in-flight run and marks it lost, so its result
// is discarded instead of reported. Must be called with mu held.
func (w *worker) abandonLocked(reason string) {
	for id, t := range w.running {
		t.lost = true
		t.cancel()
		log.Printf("dagworker: abandoning run %s (%s)", id, reason)
	}
}

// heartbeatLoop extends the leases of everything in-flight on the cadence
// the coordinator announced, and applies the coordinator's verdicts:
// cancellations abort the run (it reports cancelled), lost leases abort it
// silently (the result is discarded).
//
// The cadence comes from a Ticker, NOT a sleep after each RPC: sleeping
// time.After(ivl) once the RPC completes makes the effective period
// ivl + round-trip, and with ivl near half the lease TTL a slow
// coordinator pushed the gap past the lease TTL — a live run got swept and
// redispatched mid-flight. A ticker keeps the period fixed regardless of
// RPC latency (if one round-trip overruns the interval, the next tick is
// already pending and fires immediately, so the gap is bounded by
// max(interval, round-trip), never their sum).
func (w *worker) heartbeatLoop(stop, done chan struct{}) {
	defer close(done)
	ivl := w.interval()
	ticker := time.NewTicker(ivl)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		// Re-registration may have changed the announced cadence.
		if cur := w.interval(); cur != ivl {
			ivl = cur
			ticker.Reset(ivl)
		}
		workerID := w.currentID()
		if workerID == "" {
			continue // mid-re-registration
		}
		cctx, cancel := context.WithTimeout(context.Background(), reportTimeout)
		resp, err := w.client.Heartbeat(cctx, workerID, w.snapshotRunning())
		cancel()
		if err != nil {
			if errors.Is(err, fleet.ErrUnregistered) {
				// Re-registration needs a live ctx; the lease loop will hit
				// the same 404 and handle it. Just flag the in-flight work.
				w.mu.Lock()
				if w.id == workerID {
					w.abandonLocked("registration lost")
				}
				w.mu.Unlock()
			} else {
				log.Printf("dagworker: heartbeat failed: %v", err)
			}
			continue
		}
		w.mu.Lock()
		for _, id := range resp.Cancel {
			if t, ok := w.running[id]; ok {
				log.Printf("dagworker: cancelling run %s (coordinator request)", id)
				t.cancel()
			}
		}
		for _, id := range resp.Lost {
			if t, ok := w.running[id]; ok {
				log.Printf("dagworker: abandoning run %s (lease expired coordinator-side)", id)
				t.lost = true
				t.cancel()
			}
		}
		w.mu.Unlock()
	}
}

// execute runs one leased run to completion and reports its outcome — the
// same run.Execute call dagd's in-process workers make, with the terminal
// transition recorded coordinator-side by complete.
func (w *worker) execute(workerID string, r run.Run) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t := &task{cancel: cancel}
	w.mu.Lock()
	w.running[r.ID] = t
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.running, r.ID)
		w.mu.Unlock()
	}()

	res, err := run.Execute(ctx, r.Spec, w.runWorkers)

	w.mu.Lock()
	lost := t.lost
	w.mu.Unlock()
	if lost {
		log.Printf("dagworker: discarding result of %s: lease lost", r.ID)
		return
	}

	state, errMsg := run.Outcome(err)
	for attempt := 1; ; attempt++ {
		cctx, ccancel := context.WithTimeout(context.Background(), reportTimeout)
		fr, cerr := w.client.Complete(cctx, fleet.CompleteRequest{
			WorkerID: workerID,
			RunID:    r.ID,
			State:    state,
			Error:    errMsg,
			Result:   res,
		})
		ccancel()
		switch {
		case cerr == nil:
			log.Printf("dagworker: run %s %s", r.ID, fr.State)
			return
		case errors.Is(cerr, fleet.ErrConflict), errors.Is(cerr, fleet.ErrUnregistered):
			// The lease is gone (expired, or the coordinator restarted);
			// a re-dispatched attempt owns this run now.
			log.Printf("dagworker: result of %s refused: %v", r.ID, cerr)
			return
		case attempt >= 5:
			// Give up; the unextended lease expires and the run requeues.
			log.Printf("dagworker: reporting %s failed after %d attempts: %v", r.ID, attempt, cerr)
			return
		default:
			log.Printf("dagworker: reporting %s failed: %v (retrying)", r.ID, cerr)
			time.Sleep(500 * time.Millisecond)
		}
	}
}
