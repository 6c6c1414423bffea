package run

import (
	"container/list"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// Op names one logged transition. The strings are what a log writes to
// disk, so they never change.
type Op string

// The logged transitions. Each logs the run's full post-transition
// snapshot, except OpDel, which only older versions wrote, with an ID.
const (
	OpCreate Op = "create" // run admitted to the queue
	// OpBegin (queued → running) is written by older versions only: Begin
	// logs nothing, and replay reads an old begin record as any snapshot.
	OpBegin  Op = "begin"
	OpFinish Op = "finish" // running → succeeded|failed|cancelled
	OpCancel Op = "cancel" // queued → cancelled immediately
	// OpCancelReq is a cancellation acknowledged on a running run; its
	// snapshot carries CancelRequested. Older versions wrote it without the
	// field, so replay sets the flag on every OpCancelReq record.
	OpCancelReq Op = "cancelreq"
	OpRequeue   Op = "requeue" // running → queued: a lease expired, or recovery re-admitted it
	OpPut       Op = "put"     // a snapshot as-is: recovery's repairs, a log's compaction
	OpDel       Op = "del"     // run removed: older versions' deletes, submit rollbacks and evictions
)

// Log is what a Store writes its transitions through: the durable log in
// internal/store/wal, or a test's fake. The store calls Append under its
// lock, in the order it applies transitions, and Wait after releasing it.
type Log interface {
	// Append writes op's record of r, which it must not retain, and
	// returns the ticket Wait takes.
	Append(op Op, r *Run) (ticket uint64, err error)
	// Wait blocks until the ticketed record is durable. A nil return means
	// every record appended before it is durable too.
	Wait(ticket uint64) error
	// Close flushes the log; every Append after it fails.
	Close() error
}

// Store tracks runs for every service layer: the dispatcher records
// lifecycle transitions through it and the API layer reads snapshots from
// it, and the dispatcher leases from its tenant queues. It is one map of
// runs, one list of the terminal ones in CompareFinished order and one
// FIFO per tenant behind one RWMutex — every critical section is a map or
// list operation on a small record; the only O(n) hold is List's copy, its
// sort runs outside the lock — plus an optional Log. All methods are safe
// for concurrent use and return snapshot copies, never live state.
//
// # Awaited or not logged
//
// Every record is the run's full snapshot, and replay keeps the last one
// per run: nothing recovery needs lives beside the runs. A transition is
// one of two kinds:
//
//   - Awaited — Admit (the client's 202), Finish, Cancel (the terminal
//     record, or the cancel acknowledgement a running run carries as
//     CancelRequested), Requeue, and Recover's own records: the
//     transitions a client is told about. Each holds the store's write
//     lock from applying its transition in memory through appending its
//     record, so the log holds them in the order memory applied them (two
//     racing transitions on one run cannot log in the opposite order and
//     replay to the wrong state), and memory is never behind the log: a
//     snapshot of the store taken after a record (a log's compaction)
//     covers it. The call returns once the log has the record durable,
//     waiting after it releases the write lock. Finish and Cancel release
//     Await waiters before the wait, so a long-poller can hear of a
//     terminal state one group commit before it is durable; a power cut in
//     that window replays the run as interrupted.
//   - Not logged — Begin, BeginNext and EvictTerminal, which take the run
//     map's lock only. A run replays as its queued record from before Begin, which
//     Recover re-admits exactly as it would the running run; the run's
//     next record (finish, cancel acknowledgement, requeue) carries what
//     Begin stamped. Retention is a rule (the newest keep terminal runs in
//     CompareFinished order), not a transition: a replay may hand back
//     evicted runs, every one older than anything retained, and whoever
//     owns the bound applies it again before serving (dispatch.New does).
//
// The run map's lock is held only to apply: readers never wait on a
// record's encoding, its write, or a segment rotation.
//
// A failed append or wait is returned. Admit then removes the run again,
// so a run the log never acknowledged is never observed; any other
// transition stands in memory, the truth while the process lives.
//
// Lock order: the store's write lock, then either the run map's lock or
// the log's mutex (never both). A log never calls into the store while
// holding its own.
//
// # Tenant queues
//
// Every queued run waits in one Queue: its tenant's, once Queue has made
// one, else the catch-all tenant.Default's. A run is linked at its FIFO's
// tail, stamped, as it becomes queued: when its create record is durable,
// when Requeue retries it, when Recover restores it. Leaving queued —
// Begin, BeginNext, Cancel — unlinks it, so a FIFO holds only
// queued runs, in the order they became queued. A queue also counts the
// runs being admitted into it (within Admit's depth) and its running ones
// (for in-flight caps). The run map's lock guards it all; BeginNext and
// Drain wait on it, woken by the transitions under it.
//
// # Interrupted runs
//
// A run whose execution is lost — its worker's lease expired (Requeue), or
// the process died (Recover) — goes through one rule: with CancelRequested
// it ends cancelled, Restarts unchanged; otherwise it is reset to queued
// (execution fields cleared, Restarts incremented) for a retry. Requeue
// applies it under the write lock Cancel takes, so no acknowledged cancel
// is lost to an expiry.
//
// Recover restores terminal runs as immutable history and re-admits the
// queued and running ones by that rule, logged as OpRequeue so a second
// crash replays the same, and linked into their tenants' queues oldest
// first. Its terminal repairs are logged as OpPut: the cancelled
// outcome, and a run whose spec no longer passes Validate, which recovers
// as failed. The latter covers a newer binary's tighter bounds, a hand-edited log, and a
// retired gen_version (gen.CheckVersion): a run interrupted under version
// 1, or logged before versions existed, would have to regenerate a graph
// whose generator is gone, so it fails closed instead of executing a
// different one. Terminal runs never regenerate and replay as they were.
// Every run is in memory, in its recovered state, before the first of
// these records is appended.
type Store struct {
	log      Log
	writeMu  sync.Mutex // the write lock: held from apply through Append by awaited transitions
	mu       sync.RWMutex
	runs     map[string]*tracked
	finished list.List         // *tracked, every terminal run, in CompareFinished order
	queues   map[string]*Queue // by tenant; tenant.Default's always
	draining bool
	wake     sync.Cond // on mu: BeginNext and Drain wait here
	seq      atomic.Uint64
}

// tracked is the store's live record for one run: the run itself, the
// dispatcher's cancel hook while the run is in flight, a done channel
// closed exactly once when the run enters a terminal state (or is deleted
// before reaching one), which is what Await long-polls block on, and the
// run's place in the finish order or in its queue.
type tracked struct {
	run      Run
	cancel   context.CancelFunc
	done     chan struct{}
	finished *list.Element
	q        *Queue
	queued   *list.Element
	queuedAt time.Time
}

// Queue is one tenant's queue (see "Tenant queues"). Read it only in a
// BeginNext pick or under View.
type Queue struct {
	fifo              list.List // *tracked
	creating, running int
}

// Len is how many runs wait in q.
func (q *Queue) Len() int { return q.fifo.Len() }

// Running is how many of q's runs are running.
func (q *Queue) Running() int { return q.running }

// Age is how long q's head has waited at now, zero when q is empty.
func (q *Queue) Age(now time.Time) time.Duration {
	if head := q.fifo.Front(); head != nil {
		return now.Sub(head.Value.(*tracked).queuedAt)
	}
	return 0
}

// NewStore returns an empty store that writes every transition through log.
func NewStore(log Log) *Store {
	s := &Store{log: log, runs: make(map[string]*tracked), queues: map[string]*Queue{tenant.Default: {}}}
	s.wake.L = &s.mu
	return s
}

// NewMemStore returns an empty store that logs nothing.
func NewMemStore() *Store { return NewStore(nopLog{}) }

// nopLog is the log of a store that lives in memory only.
type nopLog struct{}

func (nopLog) Append(Op, *Run) (uint64, error) { return 0, nil }
func (nopLog) Wait(uint64) error               { return nil }
func (nopLog) Close() error                    { return nil }

// CompareRuns is the single (CreatedAt, ID) comparator behind every place
// runs are ordered: List's sort, eviction tie-breaking, and the API layer's
// pagination-cursor filter. It returns -1, 0, or +1. Keeping one comparator
// (rather than hand-rolled comparisons per call site) is what guarantees a
// cursor walk visits exactly the runs List would return — the orders cannot
// drift apart.
//
// CreatedAt is compared as UnixNano because that is what pagination cursors
// encode; Create strips monotonic readings (Round(0)) so the two clocks
// agree.
func CompareRuns(a, b Run) int {
	return comparePosition(a.CreatedAt.UnixNano(), a.ID, b.CreatedAt.UnixNano(), b.ID)
}

// CompareToCursor compares r's pagination position to a decoded
// (UnixNano, ID) cursor using the same order as CompareRuns. A run belongs
// on pages after the cursor iff the result is > 0.
func CompareToCursor(r Run, nanos int64, id string) int {
	return comparePosition(r.CreatedAt.UnixNano(), r.ID, nanos, id)
}

func comparePosition(aNanos int64, aID string, bNanos int64, bID string) int {
	switch {
	case aNanos < bNanos:
		return -1
	case aNanos > bNanos:
		return 1
	}
	return strings.Compare(aID, bID)
}

// CompareFinished is the (FinishedAt, CreatedAt, ID) eviction order:
// oldest-finished first, ties broken by CompareRuns so the victim set is
// deterministic. Store keeps its terminal runs in this order and Recover
// files replayed history by it. A nil FinishedAt (a terminal snapshot only
// a hand-made restore can produce) sorts as the zero time.
func CompareFinished(a, b Run) int {
	var at, bt time.Time
	if a.FinishedAt != nil {
		at = *a.FinishedAt
	}
	if b.FinishedAt != nil {
		bt = *b.FinishedAt
	}
	if c := at.Compare(bt); c != 0 {
		return c
	}
	return CompareRuns(a, b)
}

// file places a now-terminal run in the finish order, walking from the
// back. Finish and Cancel stamp FinishedAt under the same lock that files
// the run, so the walk ends at once; only restore can hand in an older
// stamp, and Recover restores in CompareFinished order. s.mu is held.
func (s *Store) file(t *tracked) {
	at := s.finished.Back()
	for at != nil && CompareFinished(t.run, at.Value.(*tracked).run) < 0 {
		at = at.Prev()
	}
	if at == nil {
		t.finished = s.finished.PushFront(t)
	} else {
		t.finished = s.finished.InsertAfter(t, at)
	}
}

// remove drops a run from the store: a terminal one out of the finish
// order, a non-terminal one out of its queue, releasing any Await waiters
// with its last (still non-terminal) snapshot. s.mu is held.
func (s *Store) remove(t *tracked) {
	if t.run.State.Terminal() {
		s.finished.Remove(t.finished)
	} else {
		s.leave(t)
		close(t.done)
	}
	delete(s.runs, t.run.ID)
}

// restore adds a run snapshot exactly as given — ID, timestamps, state
// and all — for Recover, which restores into an empty store one snapshot
// per ID. A terminal run is filed under its stamp with its waiters
// released, a queued one is linked; Recover restores no running run. s.mu
// is held.
func (s *Store) restore(r Run) {
	t := &tracked{run: r, q: s.queueOf(r.Spec.Tenant), done: make(chan struct{})}
	s.runs[r.ID] = t
	// Keep the ID sequence moving so fresh Create IDs don't reuse the low
	// sequence numbers restored runs already occupy (the random suffix
	// would disambiguate, but distinct prefixes read better).
	s.seq.Add(1)
	if r.State == StateQueued {
		s.link(t)
	} else if r.State.Terminal() {
		close(t.done)
		s.file(t)
	}
}

// queueOf returns the queue a tenant's runs wait in. s.mu is held.
func (s *Store) queueOf(tenantName string) *Queue {
	if q, ok := s.queues[tenantName]; ok {
		return q
	}
	return s.queues[tenant.Default]
}

// Queue returns a tenant's queue, first making it, if the tenant has none,
// of its runs queued in the default queue, in order.
func (s *Store) Queue(tenantName string) *Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queues[tenantName]; ok {
		return q
	}
	q := &Queue{}
	s.queues[tenantName] = q
	def := s.queues[tenant.Default]
	for e := def.fifo.Front(); e != nil; {
		t, next := e.Value.(*tracked), e.Next()
		if t.run.Spec.Tenant == tenantName {
			def.fifo.Remove(e)
			t.q, t.queued = q, q.fifo.PushBack(t)
		}
		e = next
	}
	return q
}

// link queues a run at its FIFO's tail and wakes a leaser. s.mu is held.
func (s *Store) link(t *tracked) {
	t.queuedAt = time.Now()
	t.queued = t.q.fifo.PushBack(t)
	s.wakeLocked(true)
}

// leave takes a run out of its FIFO or running count. s.mu is held.
func (s *Store) leave(t *tracked) {
	if t.queued != nil {
		t.q.fifo.Remove(t.queued)
		t.queued = nil
	} else if t.run.State == StateRunning {
		t.q.running--
	}
	// A backlogged queue may have been held at its in-flight cap.
	s.wakeLocked(t.q.fifo.Len() > 0)
}

// wakeLocked wakes one leaser when a run may now start, and every waiter
// once draining, when they all wait on what is left. s.mu is held.
func (s *Store) wakeLocked(startable bool) {
	switch {
	case s.draining:
		s.wake.Broadcast()
	case startable:
		s.wake.Signal()
	}
}

// await waits until done reports true or ctx is done. s.mu is held.
func (s *Store) await(ctx context.Context, done func() bool) error {
	stop := context.AfterFunc(ctx, func() {
		// Under mu, so no waiter is between its ctx check and Wait.
		s.mu.Lock()
		defer s.mu.Unlock()
		s.wake.Broadcast()
	})
	defer stop()
	for !done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.wake.Wait()
	}
	return nil
}

// backlog counts the runs being admitted, queued and, with running,
// running. s.mu is held.
func (s *Store) backlog(running bool) int {
	n := 0
	for _, q := range s.queues {
		n += q.creating + q.fifo.Len()
		if running {
			n += q.running
		}
	}
	return n
}

// transition applies apply to run id and logs the op it returns, awaited.
// An apply that refuses returns an error and changes nothing.
func (s *Store) transition(id string, apply func(t *tracked) (Op, error)) (Run, error) {
	s.writeMu.Lock()
	s.mu.Lock()
	t, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		s.writeMu.Unlock()
		return Run{}, ErrNotFound
	}
	op, err := apply(t)
	r := t.run
	s.mu.Unlock()
	var ticket uint64
	if err == nil {
		ticket, err = s.log.Append(op, &r)
	}
	s.writeMu.Unlock()
	if err != nil {
		return r, err
	}
	return r, s.log.Wait(ticket)
}

// newID returns a unique run ID: a monotonic sequence number (uniqueness)
// plus random bytes (avoids accidental collisions with IDs recovered from a
// previous process's log, whose sequence numbers restart from zero).
func (s *Store) newID() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; the sequence
		// number alone still guarantees in-process uniqueness.
		copy(b[:], "0000")
	}
	return fmt.Sprintf("r%06d-%s", s.seq.Add(1), hex.EncodeToString(b[:]))
}

// Create is Admit with no depth bound.
func (s *Store) Create(spec Spec) (Run, error) { return s.Admit(spec, 0) }

// Admit registers a new queued run for spec and, once its record is
// durable, links it into its tenant's queue and returns it. It refuses with
// ErrDraining once Drain has begun, and with ErrQueueFull when depth > 0
// runs are queued or being admitted there, checked and counted under the
// run map's lock, not held across the log's wait. CreatedAt is stripped of
// its monotonic reading (Round(0)) so that List's sort order and the API
// layer's UnixNano-based pagination cursors compare the same clock —
// otherwise a wall-clock step between creations could make paginated walks
// silently skip runs.
func (s *Store) Admit(spec Spec, depth int) (Run, error) {
	r := Run{
		ID:        s.newID(),
		Spec:      spec,
		State:     StateQueued,
		CreatedAt: time.Now().Round(0),
	}
	t := &tracked{run: r, done: make(chan struct{})}
	s.writeMu.Lock()
	s.mu.Lock()
	t.q = s.queueOf(spec.Tenant)
	if s.draining || depth > 0 && t.q.creating+t.q.fifo.Len() >= depth {
		err := ErrQueueFull
		if s.draining {
			err = ErrDraining
		}
		s.mu.Unlock()
		s.writeMu.Unlock()
		return Run{}, err
	}
	t.q.creating++
	s.runs[r.ID] = t
	s.mu.Unlock()
	ticket, err := s.log.Append(OpCreate, &r)
	if err == nil {
		s.writeMu.Unlock()
		if err = s.log.Wait(ticket); err != nil {
			s.writeMu.Lock()
		}
	}
	s.mu.Lock()
	t.q.creating--
	switch {
	case s.runs[r.ID] != t:
	case err != nil:
		// The log never acknowledged the run: take it out again, releasing
		// anyone who found it in the meantime.
		s.remove(t)
	case t.run.State == StateQueued: // not cancelled meanwhile
		s.link(t)
	}
	s.wakeLocked(false)
	s.mu.Unlock()
	if err != nil {
		s.writeMu.Unlock()
		return Run{}, err
	}
	return r, nil
}

// Get returns a snapshot of the run with the given ID.
func (s *Store) Get(id string) (Run, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	return t.run, nil
}

// List returns snapshots of every run in CompareRuns order: oldest first,
// ties broken by ID so the order is stable.
func (s *Store) List() []Run {
	s.mu.RLock()
	out := make([]Run, 0, len(s.runs))
	for _, t := range s.runs {
		out = append(out, t.run)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return CompareRuns(out[i], out[j]) < 0 })
	return out
}

// Len returns the total number of tracked runs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

// EvictTerminal deletes the oldest-finished terminal runs so that at most
// keep remain, and returns how many were evicted. Queued and running runs
// are never touched. keep <= 0 is a no-op (unlimited retention). The
// dispatcher calls this after each finish so a long-running dagd holds a
// bounded history instead of growing without bound. Victims come off the
// front of the finish order (CompareFinished), so a sweep costs the number
// of runs it evicts, not the size of the history. It logs nothing (see the
// type doc).
func (s *Store) EvictTerminal(keep int) int {
	if keep <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	for s.finished.Len() > keep {
		s.remove(s.finished.Front().Value.(*tracked))
		evicted++
	}
	return evicted
}

// CountByState returns how many runs are in each state.
func (s *Store) CountByState() map[State]int {
	counts := make(map[State]int)
	s.mu.RLock()
	for _, t := range s.runs {
		counts[t.run.State]++
	}
	s.mu.RUnlock()
	return counts
}

// Begin transitions a queued run to running, unlinking it from its queue,
// records the dispatcher's cancel hook, and stamps DispatchedAt (given: the
// moment the caller picked the run) and StartedAt. worker attributes the
// execution ("" for dagd's in-process workers, the registered worker name
// for fleet leases). It returns ErrNotQueued (without touching the run) if
// the run is in any other state — in particular if it was cancelled while
// still in the queue — and ErrNotFound for an unknown ID; nothing else,
// since it logs nothing (see the type doc).
func (s *Store) Begin(id string, dispatchedAt time.Time, worker string, cancel context.CancelFunc) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	if t.run.State != StateQueued {
		return t.run, fmt.Errorf("%w (state %s)", ErrNotQueued, t.run.State)
	}
	s.start(t, dispatchedAt, time.Now(), worker, cancel)
	return t.run, nil
}

// start makes a queued run running. s.mu is held.
func (s *Store) start(t *tracked, dispatchedAt, now time.Time, worker string, cancel context.CancelFunc) {
	s.leave(t)
	t.q.running++
	t.run.State = StateRunning
	t.run.DispatchedAt = &dispatchedAt
	t.run.StartedAt = &now
	t.run.Worker = worker
	t.cancel = cancel
}

// BeginNext waits until pick names a non-empty queue and begins its head
// as Begin would, in the same step under the run map's lock, returning it
// with the time it was queued. pick, re-run whenever the queues change,
// reads Queue counts only and returns nil when no queue may start a run.
// BeginNext returns ctx's error when ctx is done first, and ErrDraining
// once draining with nothing queued or being admitted. cancel is the run's
// cancel hook, called with its ID.
func (s *Store) BeginNext(ctx context.Context, pick func() *Queue, worker string, cancel func(id string)) (Run, time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var q *Queue
	err := s.await(ctx, func() bool {
		q = pick()
		return q != nil || s.draining && s.backlog(false) == 0
	})
	if err == nil && q == nil {
		err = ErrDraining
	}
	if err != nil {
		return Run{}, time.Time{}, err
	}
	t, now := q.fifo.Front().Value.(*tracked), time.Now()
	s.start(t, now, now, worker, func() { cancel(t.run.ID) })
	return t.run, t.queuedAt, nil
}

// Drain closes the queues to Admit and waits until no run is being
// admitted, queued or running, or until ctx is done; BeginNext keeps
// handing out what is left. It is idempotent.
func (s *Store) Drain(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		s.wake.Broadcast()
	}
	return s.await(ctx, func() bool { return s.backlog(true) == 0 })
}

// Draining reports whether Drain has begun.
func (s *Store) Draining() (draining bool) {
	s.View(func() { draining = s.draining })
	return draining
}

// View calls f under the run map's read lock, so f may read Queue counts.
func (s *Store) View(f func()) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f()
}

// Requeue settles a running run whose remote worker stopped heartbeating,
// by the rule in "Interrupted runs" (type doc): cancelled, releasing Await
// waiters, if a cancel was acknowledged on it; otherwise queued for a
// retry the waiters keep waiting for. Returns ErrNotRunning unless the run
// is currently running.
func (s *Store) Requeue(id string) (Run, error) {
	return s.transition(id, func(t *tracked) (Op, error) {
		if t.run.State != StateRunning {
			return "", fmt.Errorf("%w (state %s)", ErrNotRunning, t.run.State)
		}
		t.cancel = nil
		s.leave(t)
		if !interrupt(&t.run, "the worker's lease expired") {
			s.link(t)
			return OpRequeue, nil
		}
		s.file(t)
		close(t.done)
		return OpFinish, nil
	})
}

// interrupt applies the interrupted-run rule to r and reports whether it
// ended cancelled: honouring an acknowledged cancel means finishing it, not
// re-executing the run. Otherwise r becomes the queued snapshot its retry
// starts from. cause, what was lost, goes into the cancelled run's error.
func interrupt(r *Run, cause string) (cancelled bool) {
	if r.CancelRequested {
		end(r, StateCancelled, "cancelled; "+cause+" before the cancellation completed")
		return true
	}
	r.State = StateQueued
	r.Restarts++
	r.DispatchedAt = nil
	r.StartedAt = nil
	r.Worker = ""
	r.Result = nil
	r.Error = ""
	return false
}

// end finishes an interrupted run in state with msg as its error, stamped
// now, with no result.
func end(r *Run, state State, msg string) {
	now := time.Now().Round(0)
	r.State, r.Error, r.FinishedAt, r.Result = state, msg, &now, nil
	redactEdges(r)
}

// Outcome classifies an execution error as the terminal state it ends a run
// in — succeeded for nil, cancelled for a context cancellation, failed for
// anything else — and the message a worker reports with it: the error text,
// less a cancellation's trailing "context canceled", which the coordinator
// adds back (dispatch.CompleteLease).
func Outcome(err error) (State, string) {
	switch {
	case err == nil:
		return StateSucceeded, ""
	case errors.Is(err, context.Canceled):
		msg := strings.TrimSuffix(err.Error(), context.Canceled.Error())
		return StateCancelled, strings.TrimSuffix(msg, ": ")
	default:
		return StateFailed, err.Error()
	}
}

// Finish transitions a running run to the terminal state Outcome gives err,
// keeping err's full text as the run's error. The result (may be nil on
// error) and FinishedAt are recorded.
func (s *Store) Finish(id string, result *Result, err error) (Run, error) {
	return s.transition(id, func(t *tracked) (Op, error) {
		if t.run.State != StateRunning {
			return "", fmt.Errorf("%w (state %s)", ErrNotRunning, t.run.State)
		}
		s.leave(t)
		now := time.Now()
		t.run.FinishedAt = &now
		t.run.Result = result
		t.cancel = nil
		t.run.State, _ = Outcome(err)
		if err != nil {
			t.run.Error = err.Error()
		}
		redactEdges(&t.run)
		s.file(t)
		close(t.done)
		return OpFinish, nil
	})
}

// redactEdges drops the explicit edge list from a terminal snapshot: it
// can be ~64MB per run, and retaining it for thousands of finished runs
// (or serializing it into every list response) would let submitters pin
// unbounded memory. Execution is done — only the run's outcome needs to
// survive. SpecRedacted marks the snapshot so callers can tell the spec
// no longer describes the executed graph (resubmitting it as-is would
// run an edgeless graph).
func redactEdges(r *Run) {
	if len(r.Spec.Edges) == 0 {
		return
	}
	r.Spec.Edges = nil
	r.SpecRedacted = true
}

// Await blocks until the run reaches a terminal state or ctx is done and
// returns the latest snapshot in either case (so a timed-out wait still
// reports current progress). It fails only when id is unknown at call
// time. This is what backs the HTTP API's ?wait= long-poll: callers park
// on the run's done channel instead of busy-polling Get.
func (s *Store) Await(ctx context.Context, id string) (Run, error) {
	s.mu.RLock()
	t, ok := s.runs[id]
	var r Run
	if ok {
		r = t.run
	}
	s.mu.RUnlock()
	if !ok {
		return Run{}, ErrNotFound
	}
	// t stays valid even if the run leaves the map while we wait: eviction
	// only removes terminal (never-again-mutated) entries, and remove (the
	// rollback paths) closes done so waiters wake rather than hang — they
	// return the last snapshot taken below under the lock.
	if r.State.Terminal() {
		return r, nil
	}
	select {
	case <-ctx.Done():
	case <-t.done:
	}
	s.mu.RLock()
	r = t.run
	s.mu.RUnlock()
	return r, nil
}

// Cancel requests cancellation of a run. A queued run moves directly to
// cancelled, unlinked from its queue. A running run has its cancel hook
// invoked and CancelRequested set, logged; it stays running until the
// dispatcher observes the cancellation and calls Finish, at which point it
// lands in cancelled. Cancelling a terminal run returns ErrTerminal.
func (s *Store) Cancel(id string) (Run, error) {
	return s.transition(id, func(t *tracked) (Op, error) {
		switch t.run.State {
		case StateQueued:
			s.leave(t)
			now := time.Now()
			t.run.State = StateCancelled
			t.run.Error = "cancelled while queued"
			t.run.FinishedAt = &now
			redactEdges(&t.run)
			s.file(t)
			close(t.done)
			return OpCancel, nil
		case StateRunning:
			if t.cancel != nil {
				t.cancel()
			}
			t.run.CancelRequested = true
			return OpCancelReq, nil
		default:
			return "", fmt.Errorf("%w (state %s)", ErrTerminal, t.run.State)
		}
	})
}

// Recover loads replayed — every run a log held, in any order; it sorts
// the slice — into an empty store before it serves, and re-admits what was
// interrupted (see "Interrupted runs" in the type doc). It returns the runs
// it queued again, oldest first.
func (s *Store) Recover(replayed []Run) ([]Run, error) {
	var history, readmitted, recovered []Run
	var ops []Op
	sort.Slice(replayed, func(i, j int) bool { return CompareRuns(replayed[i], replayed[j]) < 0 })
	for _, r := range replayed {
		// Records written before tenancy existed carry no attribution;
		// replay them as the catch-all default tenant so history filters
		// and re-admission both have a real tenant to point at.
		if r.Spec.Tenant == "" {
			r.Spec.Tenant = tenant.Default
		}
		// Records written before the generator was versioned carry none;
		// their graphs were drawn by version 1, and a zero would now mean
		// the current version. Version 1 is retired, so an interrupted one
		// fails re-validation in readmit rather than re-executing.
		if r.Spec.GenVersion == 0 {
			r.Spec.GenVersion = 1
		}
		if r.State.Terminal() {
			history = append(history, r)
			continue
		}
		r, op := readmit(r)
		readmitted, ops = append(readmitted, r), append(ops, op)
		if op == OpRequeue {
			recovered = append(recovered, r)
		}
	}
	// History goes in in the order the store keeps it: filing shuffled runs
	// one sorted insert at a time is O(n²), in order O(n). The terminal
	// repairs, stamped now, file after it.
	sort.Slice(history, func(i, j int) bool { return CompareFinished(history[i], history[j]) < 0 })
	s.mu.Lock()
	for _, r := range append(history, readmitted...) {
		s.restore(r)
	}
	s.mu.Unlock()

	// One wait covers every record: a durable ticket makes each record
	// appended before it durable too (Log).
	var ticket uint64
	for i := range readmitted {
		s.writeMu.Lock()
		t, err := s.log.Append(ops[i], &readmitted[i])
		s.writeMu.Unlock()
		if err != nil {
			return nil, err
		}
		ticket = t
	}
	if len(readmitted) > 0 {
		if err := s.log.Wait(ticket); err != nil {
			return nil, err
		}
	}
	return recovered, nil
}

// readmit derives what an interrupted run becomes on recovery, and the op
// that logs it: queued again (OpRequeue), or one of the two terminal
// repairs (OpPut). Only recovery re-validates the spec: Requeue holds the
// store's lock, which an explicit spec's DAG build must not run under.
func readmit(r Run) (Run, Op) {
	if interrupt(&r, "the service restarted") {
		return r, OpPut
	}
	if err := r.Spec.Validate(); err != nil {
		// Admission would refuse this spec now: never re-execute it.
		end(&r, StateFailed, fmt.Sprintf("spec failed re-validation during crash recovery: %v", err))
		return r, OpPut
	}
	return r, OpRequeue
}

// Close closes the store's log: after it, a durable log refuses every
// transition, and a NewMemStore store carries on.
func (s *Store) Close() error { return s.log.Close() }
