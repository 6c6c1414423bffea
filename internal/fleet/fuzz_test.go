package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// FuzzLeaseProtocol drives the coordinator's side of the lease protocol in
// process, with no HTTP: the input is a program of register, acquire,
// heartbeat, complete, cancel and sweep steps over up to three workers and
// eight runs, on a fake clock the program advances. After every step it
// checks that the three views of "leased" agree — the store's running runs,
// the dispatcher's in-flight slots and the workers' lease tables, the
// dispatcher's read off /metrics as an operator reads them — that the
// fleet's gauges match its tables, that no run is in two workers' tables,
// and that no terminal run leaves its state. Of a completion and an expiry
// exactly one wins and the other gets dispatch.ErrNotLeased, and an expiry
// never loses a cancel the store has acknowledged. A final drain must bring
// every run to a terminal state exactly once.
func FuzzLeaseProtocol(f *testing.F) {
	for _, seed := range leaseSeeds {
		f.Add(seed)
	}
	prev := log.Writer()
	log.SetOutput(io.Discard) // the sweeper logs every expiry
	f.Cleanup(func() { log.SetOutput(prev) })
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := newLeaseSim(t, prog)
		for step := 0; step < maxSimSteps && len(s.prog) > 0; step++ {
			s.step(s.arg() % numOps)
			s.check()
		}
		s.drain()
	})
}

// The program's steps: one opcode byte, then the step's argument bytes (an
// argument past the end of the input reads as 0).
const (
	opSubmit    = iota // workload: odd = hashchain, else pathcount
	opRegister         // slot, capacity-1, a retired byte (it was the workload filter)
	opAcquire          // slot
	opHeartbeat        // slot, mask: bit i names the worker's i-th lease, bit 7 also some run it may not hold
	opComplete         // slot, run, state
	opCancel           // run (through the dispatcher, as POST /v1/runs/{id}/cancel does)
	opSweep            // clock advance, in sixteenths of the TTL
	opRace             // run, state: its holder's completion races a sweep past its lease
	opWindow           // clock advance, victim: a cancel lands between a sweep's pick and its expiry
	numOps
)

const (
	simSlots    = 3
	maxSimRuns  = 8
	maxSimSteps = 64
)

var simStates = []run.State{run.StateSucceeded, run.StateFailed, run.StateCancelled}

// leaseSeeds are TestLifecycleParity's scenarios (internal/dispatch) written
// as programs, plus the expiry paths the fleet adds.
var leaseSeeds = [][]byte{
	// success: three runs over two workloads, one worker.
	{opSubmit, 0, opSubmit, 0, opSubmit, 1, opRegister, 0, 2, 0, opAcquire, 0, opAcquire, 0, opAcquire, 0,
		opComplete, 0, 0, 0, opComplete, 0, 1, 0, opComplete, 0, 2, 0},
	// failing spec: the worker reports failed, then serves the next run.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opComplete, 0, 0, 1,
		opSubmit, 0, opAcquire, 0, opComplete, 0, 1, 0},
	// cancel while queued: the victim waits behind a plug and is cancelled
	// out of the queue; the plug is cancelled running.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opSubmit, 0, opCancel, 1, opCancel, 0,
		opHeartbeat, 0, 1, opComplete, 0, 0, 2},
	// cancel while running: relayed on a heartbeat, reported cancelled.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opCancel, 0, opHeartbeat, 0, 0xff, opComplete, 0, 0, 2},
	// at capacity: the hog's worker is refused a second lease, a second
	// worker takes the queue's head, and the first takes the next run once
	// the hog is cancelled.
	{opRegister, 0, 0, 0, opSubmit, 0, opAcquire, 0, opSubmit, 0, opAcquire, 0,
		opRegister, 1, 0, 1, opSubmit, 1, opAcquire, 1, opComplete, 1, 2, 0,
		opCancel, 0, opHeartbeat, 0, 1, opComplete, 0, 0, 2, opAcquire, 0, opComplete, 0, 1, 0},
	// graceful drain: four runs over two workers.
	{opSubmit, 0, opSubmit, 0, opSubmit, 0, opSubmit, 0, opRegister, 0, 1, 0, opRegister, 1, 1, 0,
		opAcquire, 0, opAcquire, 1, opAcquire, 0, opAcquire, 1,
		opComplete, 0, 0, 0, opComplete, 1, 1, 0, opComplete, 0, 2, 0, opComplete, 1, 3, 0},
	// drain deadline: a lease left running for the final drain.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0},
	// expiry: the dead worker's late report loses, a survivor finishes.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opSweep, 17, opRegister, 1, 0, 0, opAcquire, 1,
		opComplete, 0, 0, 0, opComplete, 1, 0, 0},
	// partial heartbeat: the unnamed lease expires, the named one survives.
	{opRegister, 0, 1, 0, opSubmit, 0, opSubmit, 0, opAcquire, 0, opAcquire, 0,
		opSweep, 8, opHeartbeat, 0, 1, opSweep, 9, opHeartbeat, 0, 3},
	// expiry with a cancellation pending finishes the run cancelled.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opCancel, 0, opSweep, 17},
	// completion racing expiry, without and with a cancellation pending.
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opRace, 0, 0},
	{opSubmit, 0, opRegister, 0, 0, 0, opAcquire, 0, opCancel, 0, opRace, 0, 1},
	// a cancel acknowledged inside the sweeper's window: of two overdue
	// leases, the cancelled one ends cancelled and the other requeues.
	{opSubmit, 0, opSubmit, 0, opRegister, 0, 1, 0, opAcquire, 0, opAcquire, 0, opWindow, 17, 1},
}

// leaseSim is one program's run: the coordinator stack and what the program
// has created on it.
type leaseSim struct {
	t        *testing.T
	h        *harness
	prog     []byte
	clock    time.Time
	runs     []string             // submitted run IDs, by index
	workers  [simSlots]string     // worker ID per slot; "" = none registered yet
	terminal map[string]run.State // run ID → the terminal state it reached
	refused  string               // the worker whose poll this step refused for want of work
}

func newLeaseSim(t *testing.T, prog []byte) *leaseSim {
	s := &leaseSim{t: t, h: newStack(t, Options{}), prog: prog, terminal: map[string]run.State{}}
	// An hour ahead of the real clock, so the manager's own sweeper (which
	// sweeps at time.Now()) never expires anything the program granted.
	s.clock = time.Now().Add(time.Hour)
	s.h.mgr.now = func() time.Time { return s.clock }
	return s
}

func (s *leaseSim) arg() int {
	if len(s.prog) == 0 {
		return 0
	}
	b := s.prog[0]
	s.prog = s.prog[1:]
	return int(b)
}

func (s *leaseSim) step(op int) {
	switch op {
	case opSubmit:
		s.submit(s.arg()%2 == 1)
	case opRegister:
		slot, capacity := s.arg()%simSlots, 1+s.arg()%3
		s.arg() // retired: every worker runs every run
		s.register(slot, capacity)
	case opAcquire:
		s.acquire(s.arg() % simSlots)
	case opHeartbeat:
		s.heartbeat(s.arg()%simSlots, s.arg())
	case opComplete:
		s.complete(s.arg()%simSlots, s.arg(), simStates[s.arg()%len(simStates)])
	case opCancel:
		s.cancel(s.arg())
	case opSweep:
		s.clock = s.clock.Add(time.Duration(s.arg()) * DefaultLeaseTTL / 16)
		overdue := s.overdue()
		s.h.mgr.sweepOnce(s.clock)
		s.checkExpired(overdue)
	case opRace:
		s.race(s.arg(), simStates[s.arg()%2])
	case opWindow:
		s.clock = s.clock.Add(time.Duration(s.arg()) * DefaultLeaseTTL / 16)
		s.window(s.arg())
	}
}

func (s *leaseSim) get(id string) run.Run {
	s.t.Helper()
	r, err := s.h.store.Get(id)
	if err != nil {
		s.t.Fatal(err)
	}
	return r
}

// run maps an argument onto a submitted run.
func (s *leaseSim) run(b int) (string, bool) {
	if len(s.runs) == 0 {
		return "", false
	}
	return s.runs[b%len(s.runs)], true
}

// lease finds a run in the lease tables — the worker whose table holds it
// and its deadline — and reads off the run whether a cancel is pending.
func (s *leaseSim) lease(id string) (holder string, expiresAt time.Time, cancelled, ok bool) {
	m := s.h.mgr
	m.mu.Lock()
	for wid, w := range m.workers {
		if at, held := w.leases[id]; held {
			holder, expiresAt, ok = wid, at, true
		}
	}
	m.mu.Unlock()
	if ok {
		cancelled = s.get(id).CancelRequested
	}
	return holder, expiresAt, cancelled, ok
}

func (s *leaseSim) submit(hashchain bool) {
	if len(s.runs) >= maxSimRuns {
		return
	}
	spec := run.Spec{Config: gen.Config{Shape: gen.Chain, Nodes: 3}, Workload: "pathcount"}
	if hashchain {
		spec.Workload = "hashchain"
	}
	r, err := s.h.disp.Submit(spec)
	if err != nil {
		s.t.Fatal(err)
	}
	s.runs = append(s.runs, r.ID)
}

func (s *leaseSim) register(slot, capacity int) {
	s.workers[slot] = s.h.mgr.register(fmt.Sprint("w", slot), capacity)
}

// acquire polls for the slot's worker. The poll is granted exactly when the
// worker is registered, under capacity and some run is queued: every worker
// runs every run, so no queued run may wait while a worker has room. Only
// then does the poll get a wait long enough to matter; a poll the model
// expects refused gets a context that has already expired. Lease gives up
// on it only when its pick finds nothing, so the step's scrape in check
// must then show what a wait would have found: no run queued.
func (s *leaseSim) acquire(slot int) {
	id := s.workers[slot]
	if id == "" {
		return
	}
	m := s.h.mgr
	m.mu.Lock()
	w, registered := m.workers[id]
	full := registered && len(w.leases) >= w.capacity
	m.mu.Unlock()
	eligible := false
	for _, rid := range s.runs {
		eligible = eligible || s.get(rid).State == run.StateQueued
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Time{})
	if registered && !full && eligible {
		ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	}
	r, err := m.acquire(ctx, id)
	cancel()
	switch {
	case !registered:
		if !errors.Is(err, errUnknownWorker) {
			s.t.Fatalf("acquire by pruned worker %s = %v, want errUnknownWorker", id, err)
		}
	case full:
		if !errors.Is(err, errAtCapacity) {
			s.t.Fatalf("acquire by full worker %s = %v, want errAtCapacity", id, err)
		}
	case eligible:
		if err != nil || r.State != run.StateRunning || r.Worker != id {
			s.t.Fatalf("acquire by %s with work queued = %+v, %v; want a run running on it", id, r, err)
		}
	default:
		if !errors.Is(err, context.DeadlineExceeded) {
			s.t.Fatalf("acquire by %s with nothing it can take = %+v, %v; want DeadlineExceeded", id, r, err)
		}
		s.refused = id
	}
}

func (s *leaseSim) heartbeat(slot, mask int) {
	id := s.workers[slot]
	if id == "" {
		return
	}
	m := s.h.mgr
	m.mu.Lock()
	var held []string
	w, registered := m.workers[id]
	if registered {
		for rid := range w.leases {
			held = append(held, rid)
		}
	}
	m.mu.Unlock()
	sort.Strings(held)
	named := map[string]bool{}
	for i, rid := range held {
		if i < 7 && mask&(1<<i) != 0 {
			named[rid] = true
		}
	}
	if stranger, ok := s.run(mask); ok && mask&0x80 != 0 {
		named[stranger] = true
	}
	var names []string
	for rid := range named {
		names = append(names, rid)
	}
	cancel, lost, ok := m.heartbeat(id, names)
	if ok != registered {
		s.t.Fatalf("heartbeat by %s: ok = %v, registered = %v", id, ok, registered)
	}
	if !ok {
		return
	}
	cancelled := map[string]bool{}
	for _, rid := range cancel {
		cancelled[rid] = true
	}
	isLost := map[string]bool{}
	for _, rid := range lost {
		isLost[rid] = true
	}
	for rid := range named {
		holder, expiresAt, pending, leased := s.lease(rid)
		switch {
		case leased && holder == id:
			if !expiresAt.Equal(s.clock.Add(DefaultLeaseTTL)) {
				s.t.Fatalf("heartbeat by %s left the lease of %s expiring at %v, want now+TTL", id, rid, expiresAt)
			}
			if cancelled[rid] != pending {
				s.t.Fatalf("heartbeat by %s: %s in cancel = %v, cancellation pending = %v", id, rid, cancelled[rid], pending)
			}
		case !isLost[rid]:
			s.t.Fatalf("heartbeat by %s named %s, which it does not hold, and was not told it is lost", id, rid)
		}
	}
	for rid := range cancelled {
		if !named[rid] {
			s.t.Fatalf("heartbeat by %s was told to cancel %s, which it did not name", id, rid)
		}
	}
}

func (s *leaseSim) complete(slot, b int, state run.State) {
	id := s.workers[slot]
	rid, ok := s.run(b)
	if id == "" || !ok {
		return
	}
	holder, _, _, leased := s.lease(rid)
	fr, err := s.h.mgr.complete(id, rid, state, "simulated outcome", nil)
	if leased && holder == id {
		if err != nil || fr.State != state {
			s.t.Fatalf("complete(%s, %s, %s) by the holder = %s, %v", id, rid, state, fr.State, err)
		}
	} else if !errors.Is(err, dispatch.ErrNotLeased) {
		s.t.Fatalf("complete(%s, %s) by a non-holder = %v, want ErrNotLeased", id, rid, err)
	}
}

func (s *leaseSim) cancel(b int) {
	rid, ok := s.run(b)
	if !ok {
		return
	}
	before := s.get(rid)
	r, err := s.h.disp.Cancel(rid)
	switch before.State {
	case run.StateQueued:
		if err != nil || r.State != run.StateCancelled {
			s.t.Fatalf("Cancel(queued %s) = %s, %v; want cancelled", rid, r.State, err)
		}
	case run.StateRunning:
		if err != nil || r.State != run.StateRunning || !r.CancelRequested {
			s.t.Fatalf("Cancel(running %s) = %+v, %v; want running with the cancel acknowledged", rid, r, err)
		}
	default:
		if !errors.Is(err, run.ErrTerminal) {
			s.t.Fatalf("Cancel(terminal %s) = %v, want ErrTerminal", rid, err)
		}
	}
}

// expiry is what a lease the clock has passed should turn into at the next
// sweep.
type expiry struct {
	cancelled bool // finished cancelled instead of requeued
	restarts  int  // the run's Restarts before the sweep
}

// overdue lists the leases the next sweep at s.clock must expire.
func (s *leaseSim) overdue() map[string]expiry {
	m := s.h.mgr
	m.mu.Lock()
	out := map[string]expiry{}
	for _, w := range m.workers {
		for rid, expiresAt := range w.leases {
			if s.clock.After(expiresAt) {
				out[rid] = expiry{}
			}
		}
	}
	m.mu.Unlock()
	for rid := range out {
		r := s.get(rid)
		out[rid] = expiry{cancelled: r.CancelRequested, restarts: r.Restarts}
	}
	return out
}

// checkExpired verifies each overdue lease was expired the way it should
// have been: requeued with one more restart, or finished cancelled.
func (s *leaseSim) checkExpired(overdue map[string]expiry) {
	for rid, e := range overdue {
		if _, _, _, leased := s.lease(rid); leased {
			s.t.Fatalf("lease of %s survived a sweep past its expiry", rid)
		}
		r := s.get(rid)
		if e.cancelled && (r.State != run.StateCancelled || r.Restarts != e.restarts) ||
			!e.cancelled && (r.State != run.StateQueued || r.Restarts != e.restarts+1) {
			s.t.Fatalf("expired %s (cancel pending %v, restarts %d) is now %s with restarts %d",
				rid, e.cancelled, e.restarts, r.State, r.Restarts)
		}
	}
}

// window replays the sweeper's unlocked stretch: the overdue leases leave
// the tables as sweepOnce takes them, one victim is cancelled after the
// sweep picked it and before its expiry reaches the store, and then each
// victim is expired through the dispatcher. The store acknowledged that
// cancel, so the expiry must honour it: the victim ends cancelled with
// Restarts unchanged instead of executing again.
func (s *leaseSim) window(b int) {
	overdue := s.overdue()
	if len(overdue) == 0 {
		return
	}
	var victims []string
	m := s.h.mgr
	m.mu.Lock()
	for _, w := range m.workers {
		for rid := range w.leases {
			if _, ok := overdue[rid]; ok {
				victims = append(victims, rid)
				delete(w.leases, rid)
				w.lost = append(w.lost, rid)
			}
		}
	}
	m.mu.Unlock()
	sort.Strings(victims)

	cancelled := victims[b%len(victims)]
	if r, err := s.h.disp.Cancel(cancelled); err != nil || !r.CancelRequested {
		s.t.Fatalf("Cancel(%s) inside the sweeper's window = %+v, %v; want the cancel acknowledged", cancelled, r, err)
	}
	overdue[cancelled] = expiry{cancelled: true, restarts: overdue[cancelled].restarts}
	for _, rid := range victims {
		if _, err := s.h.disp.ExpireLease(rid); err != nil {
			s.t.Fatalf("ExpireLease(%s) of a lease the sweep took = %v", rid, err)
		}
	}
	s.checkExpired(overdue)
}

// race runs the holder's completion of a run concurrently with a sweep past
// its lease. Exactly one must win. Afterwards, with the run no longer
// running, a completion or an expiry straight through the dispatcher must
// get ErrNotLeased and change nothing.
func (s *leaseSim) race(b int, state run.State) {
	rid, ok := s.run(b)
	if !ok {
		return
	}
	if holder, expiresAt, _, leased := s.lease(rid); leased {
		before := s.get(rid)
		if !s.clock.After(expiresAt) {
			s.clock = expiresAt.Add(time.Nanosecond)
		}
		overdue := s.overdue()
		var cerr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, cerr = s.h.mgr.complete(holder, rid, state, "simulated outcome", nil)
		}()
		go func() {
			defer wg.Done()
			s.h.mgr.sweepOnce(s.clock)
		}()
		wg.Wait()
		switch r := s.get(rid); {
		case cerr == nil:
			if r.State != state || r.Restarts != before.Restarts {
				s.t.Fatalf("completion of %s won the race but the run is %s with restarts %d", rid, r.State, r.Restarts)
			}
			delete(overdue, rid)
		case !errors.Is(cerr, dispatch.ErrNotLeased):
			s.t.Fatalf("completion of %s racing expiry = %v, want nil or ErrNotLeased", rid, cerr)
		}
		s.checkExpired(overdue)
	}
	before := s.get(rid)
	if before.State == run.StateRunning {
		s.t.Fatalf("%s is running with no lease", rid)
	}
	if _, err := s.h.disp.CompleteLease(rid, run.StateSucceeded, "", nil); !errors.Is(err, dispatch.ErrNotLeased) {
		s.t.Fatalf("late CompleteLease(%s %s) = %v, want ErrNotLeased", before.State, rid, err)
	}
	if _, err := s.h.disp.ExpireLease(rid); !errors.Is(err, dispatch.ErrNotLeased) {
		s.t.Fatalf("late ExpireLease(%s %s) = %v, want ErrNotLeased", before.State, rid, err)
	}
	if after := s.get(rid); after.State != before.State || after.Restarts != before.Restarts {
		s.t.Fatalf("late reports moved %s from %s/%d to %s/%d", rid, before.State, before.Restarts, after.State, after.Restarts)
	}
}

// check asserts the protocol's invariants between steps.
func (s *leaseSim) check() {
	s.t.Helper()
	counts := s.h.store.CountByState()
	// The dispatcher's collect hook renders its two gauges off the store's
	// queues under one lock, the fleet's its two under another.
	load := s.h.metricSums(s.t, "dagd_queue_depth", "dagd_inflight_runs", "dagd_workers", "dagd_active_leases")
	queued, inflight, workers, leases := int(load[0]), int(load[1]), int(load[2]), int(load[3])
	if s.refused != "" && queued != 0 {
		s.t.Fatalf("acquire by %s refused while %d runs are queued", s.refused, queued)
	}
	s.refused = ""

	m := s.h.mgr
	m.mu.Lock()
	registered := len(m.workers)
	owner := map[string]string{}
	for wid, w := range m.workers {
		if w.polls != 0 || len(w.leases) > w.capacity {
			m.mu.Unlock()
			s.t.Fatalf("worker %s: %d polls in flight, %d leases at capacity %d", wid, w.polls, len(w.leases), w.capacity)
		}
		for rid := range w.leases {
			if other, dup := owner[rid]; dup {
				m.mu.Unlock()
				s.t.Fatalf("%s is in the lease tables of both %s and %s", rid, other, wid)
			}
			owner[rid] = wid
		}
	}
	m.mu.Unlock()

	if counts[run.StateRunning] != inflight || inflight != len(owner) {
		s.t.Fatalf("store running %d, in-flight slots %d, lease tables %d: want all equal",
			counts[run.StateRunning], inflight, len(owner))
	}
	if leases != len(owner) || workers != registered {
		s.t.Fatalf("dagd_active_leases %d, dagd_workers %d; the tables hold %d leases over %d workers",
			leases, workers, len(owner), registered)
	}
	for rid, holder := range owner {
		if r := s.get(rid); r.State != run.StateRunning || r.Worker != holder {
			s.t.Fatalf("%s leased to %s, stored %s on %q", rid, holder, r.State, r.Worker)
		}
	}
	for _, rid := range s.runs {
		r := s.get(rid)
		if prev, ok := s.terminal[rid]; ok && r.State != prev {
			s.t.Fatalf("%s left terminal state %s for %s", rid, prev, r.State)
		}
		if r.State.Terminal() {
			s.terminal[rid] = r.State
		}
	}
}

// drain expires every lease the program left, hands the queue to one fresh
// worker that completes everything, and shuts the dispatcher down: every
// run must end terminal, each counted once.
func (s *leaseSim) drain() {
	s.clock = s.clock.Add(2 * DefaultLeaseTTL)
	overdue := s.overdue()
	s.h.mgr.sweepOnce(s.clock)
	s.checkExpired(overdue)
	s.check()

	s.register(0, maxSimRuns)
	for s.h.metricValue(s.t, "dagd_queue_depth") > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r, err := s.h.mgr.acquire(ctx, s.workers[0])
		cancel()
		if err != nil {
			s.t.Fatalf("drain: acquire with work queued = %v", err)
		}
		if _, err := s.h.mgr.complete(s.workers[0], r.ID, run.StateSucceeded, "", &run.Result{Match: true}); err != nil {
			s.t.Fatalf("drain: complete %s = %v", r.ID, err)
		}
		s.check()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.h.disp.Shutdown(ctx); err != nil {
		s.t.Fatalf("drain: Shutdown = %v", err)
	}
	s.check()
	for _, rid := range s.runs {
		if r := s.get(rid); !r.State.Terminal() {
			s.t.Fatalf("drain: %s ended %s", rid, r.State)
		}
	}
	if n := s.h.metricValue(s.t, "dagd_runs_completed_total"); int(n) != len(s.runs) {
		s.t.Fatalf("drain: %v terminal transitions counted for %d runs", n, len(s.runs))
	}
}
