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
)

// Store is the run-tracking abstraction every service layer wires against:
// the dispatcher records lifecycle transitions through it and the API layer
// reads snapshots from it. Two implementations exist — the in-memory
// MemStore below and the WAL-backed store in internal/store/wal — and both
// must satisfy the shared conformance suite in internal/storetest, so
// list/pagination order, eviction, and Await semantics read identically
// regardless of backend.
//
// Mutating methods return an error when the backend fails to record the
// transition durably; the in-memory implementation never does.
type Store interface {
	// Create registers a new queued run for spec and returns its snapshot.
	Create(spec Spec) (Run, error)
	// Get returns a snapshot of the run with the given ID.
	Get(id string) (Run, error)
	// List returns snapshots of every run in (CreatedAt, ID) order — see
	// CompareRuns, the one comparator pagination and eviction share.
	List() []Run
	// Len returns the total number of tracked runs.
	Len() int
	// CountByState returns how many runs are in each state.
	CountByState() map[State]int
	// Begin transitions a queued run to running and records the
	// dispatcher's cancel hook. dispatchedAt is the moment the dispatcher
	// popped the run off its queue, stamped on the run alongside the
	// Begin-time StartedAt. worker attributes the execution ("" for
	// dagd's in-process workers, the registered worker name for fleet
	// leases).
	Begin(id string, dispatchedAt time.Time, worker string, cancel context.CancelFunc) (Run, error)
	// Finish transitions a running run to its terminal state.
	Finish(id string, result *Result, err error) (Run, error)
	// Requeue moves a running run back to queued within the same process —
	// the lease-expiry path: a remote worker stopped heartbeating, so the
	// run is re-admitted with Restarts incremented, execution-side fields
	// (DispatchedAt, StartedAt, Worker, Result, Error) cleared, and any
	// Await waiters left blocked until the retry reaches a terminal state.
	// Returns ErrNotRunning when the run is not running.
	Requeue(id string) (Run, error)
	// Cancel requests cancellation (queued → cancelled immediately;
	// running → cancel hook invoked).
	Cancel(id string) (Run, error)
	// Await blocks until the run is terminal or ctx is done, returning the
	// latest snapshot either way.
	Await(ctx context.Context, id string) (Run, error)
	// Delete removes a run entirely (submit-rollback path; see
	// MemStore.Delete for the semantics).
	Delete(id string) error
	// EvictTerminal deletes the oldest-finished terminal runs so at most
	// keep remain, returning how many were evicted. Retention is a rule,
	// not a transition: a durable backend records nothing here and may
	// come back from a restart holding more than keep, so whoever owns the
	// bound applies it again before serving (dispatch.New does).
	EvictTerminal(keep int) int
	// Close releases backend resources (file handles, buffers). The
	// in-memory store's Close is a no-op.
	Close() error
}

// CompareRuns is the single (CreatedAt, ID) comparator behind every place
// runs are ordered: MemStore.List's sort, eviction tie-breaking, and the
// API layer's pagination-cursor filter. It returns -1, 0, or +1. Keeping
// one comparator (rather than hand-rolled comparisons per call site) is
// what guarantees a cursor walk visits exactly the runs List would return —
// the orders cannot drift apart.
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
// deterministic. MemStore keeps its terminal runs in this order and WAL
// replay sorts by it before restoring them. A nil FinishedAt (a terminal
// snapshot only a hand-made Restore can produce) sorts as the zero time.
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

// MemStore is the in-memory Store implementation: one map of runs and one
// list of the terminal ones in CompareFinished order, behind one RWMutex.
// One lock is enough because every critical section is a map operation on
// a small record; the only O(n) hold is List's copy (under the read lock,
// its sort outside it). All methods are safe for concurrent use and return
// snapshot copies, never live internal state. It is both the default
// backend (dagd without -data-dir) and the in-memory half of the
// WAL-backed store, which replays its log into a MemStore on boot via
// Restore.
type MemStore struct {
	mu       sync.RWMutex
	runs     map[string]*tracked
	finished list.List // *tracked, every terminal run, in CompareFinished order
	seq      atomic.Uint64
}

var _ Store = (*MemStore)(nil)

// tracked is the store's live record for one run: the run itself, the
// dispatcher's cancel hook while the run is in flight, a done channel
// closed exactly once when the run enters a terminal state (or is deleted
// before reaching one), which is what Await long-polls block on, and the
// run's place in the finish order once it is terminal.
type tracked struct {
	run      Run
	cancel   context.CancelFunc
	done     chan struct{}
	finished *list.Element
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{runs: make(map[string]*tracked)}
}

// file places a now-terminal run in the finish order, walking from the
// back. Finish and Cancel stamp FinishedAt under the same lock that files
// the run, so the walk ends at once; only Restore can hand in an older
// stamp, and WAL replay restores in CompareFinished order.
func (s *MemStore) file(t *tracked) {
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

// unfile takes a run out of the finish order, if it is there.
func (s *MemStore) unfile(t *tracked) {
	if t.finished != nil {
		s.finished.Remove(t.finished)
		t.finished = nil
	}
}

// newID returns a unique run ID: a monotonic sequence number (uniqueness)
// plus random bytes (avoids accidental collisions with IDs recovered from a
// previous process's WAL, whose sequence numbers restart from zero).
func (s *MemStore) newID() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; the sequence
		// number alone still guarantees in-process uniqueness.
		copy(b[:], "0000")
	}
	return fmt.Sprintf("r%06d-%s", s.seq.Add(1), hex.EncodeToString(b[:]))
}

// Create registers a new queued run for spec and returns its snapshot.
// CreatedAt is stripped of its monotonic reading (Round(0)) so that
// List's sort order and the API layer's UnixNano-based pagination cursors
// compare the same clock — otherwise a wall-clock step between creations
// could make paginated walks silently skip runs. The error is always nil;
// it exists for the Store interface, whose durable implementations can
// fail here.
func (s *MemStore) Create(spec Spec) (Run, error) {
	r := Run{
		ID:        s.newID(),
		Spec:      spec,
		State:     StateQueued,
		CreatedAt: time.Now().Round(0),
	}
	s.mu.Lock()
	s.runs[r.ID] = &tracked{run: r, done: make(chan struct{})}
	s.mu.Unlock()
	return r, nil
}

// Restore upserts a run snapshot exactly as given — ID, timestamps, state
// and all. It exists for WAL replay: the durable store rebuilds its
// in-memory state by restoring each surviving run on boot. Terminal
// restores arrive with their done channel already closed so Await returns
// immediately; restoring a terminal snapshot over a live entry releases
// its waiters, and over a terminal one re-files it under its new stamp.
func (s *MemStore) Restore(r Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.runs[r.ID]
	if !ok {
		t = &tracked{done: make(chan struct{})}
		s.runs[r.ID] = t
		// Keep the ID sequence moving so fresh Create IDs don't reuse the
		// low sequence numbers restored runs already occupy (the random
		// suffix would disambiguate, but distinct prefixes read better).
		s.seq.Add(1)
	}
	if r.State.Terminal() && !t.run.State.Terminal() {
		close(t.done)
	}
	s.unfile(t)
	t.run = r
	if r.State.Terminal() {
		s.file(t)
	}
}

// Delete removes a run entirely. It exists so a submitter can roll back a
// Create whose queue hand-off failed — before the ID has been revealed to
// anyone — and it succeeds regardless of state. Deleting a non-terminal
// run releases any Await waiters with the run's last (still non-terminal)
// snapshot, so Delete must not be used on runs whose IDs callers may
// already be watching.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	if t, ok := s.runs[id]; ok {
		if !t.run.State.Terminal() {
			close(t.done) // release any waiter; they'll re-read the last snapshot
		}
		s.unfile(t)
		delete(s.runs, id)
	}
	s.mu.Unlock()
	return nil
}

// Get returns a snapshot of the run with the given ID.
func (s *MemStore) Get(id string) (Run, error) {
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
func (s *MemStore) List() []Run {
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
func (s *MemStore) Len() int {
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
// of runs it evicts, not the size of the history.
func (s *MemStore) EvictTerminal(keep int) int {
	if keep <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	for s.finished.Len() > keep {
		t := s.finished.Front().Value.(*tracked)
		s.unfile(t)
		delete(s.runs, t.run.ID)
		evicted++
	}
	return evicted
}

// CountByState returns how many runs are in each state.
func (s *MemStore) CountByState() map[State]int {
	counts := make(map[State]int)
	s.mu.RLock()
	for _, t := range s.runs {
		counts[t.run.State]++
	}
	s.mu.RUnlock()
	return counts
}

// Begin transitions a queued run to running, records the dispatcher's
// cancel hook, and stamps DispatchedAt and StartedAt. It returns
// ErrNotQueued (without touching the run) if the run is in any other state
// — in particular if it was cancelled while still in the queue.
func (s *MemStore) Begin(id string, dispatchedAt time.Time, worker string, cancel context.CancelFunc) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	if t.run.State != StateQueued {
		return t.run, fmt.Errorf("%w (state %s)", ErrNotQueued, t.run.State)
	}
	now := time.Now()
	t.run.State = StateRunning
	t.run.DispatchedAt = &dispatchedAt
	t.run.StartedAt = &now
	t.run.Worker = worker
	t.cancel = cancel
	return t.run, nil
}

// Requeue moves a running run back to queued: Restarts is incremented and
// the execution-side fields (DispatchedAt, StartedAt, Worker, Result,
// Error) are cleared so the retry's snapshot reads like a fresh queued run.
// The done channel is left open — Await waiters keep waiting for the retry
// to reach a terminal state, exactly as they would across a crash-recovery
// requeue. Returns ErrNotRunning unless the run is currently running.
func (s *MemStore) Requeue(id string) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	if t.run.State != StateRunning {
		return t.run, fmt.Errorf("%w (state %s)", ErrNotRunning, t.run.State)
	}
	RequeueSnapshot(&t.run)
	t.cancel = nil
	return t.run, nil
}

// RequeueSnapshot turns an interrupted run's snapshot into the queued one
// its retry starts from: Restarts incremented, every execution-side field
// cleared. Requeue applies it to a live run whose lease expired; the WAL
// store's crash recovery applies it to runs the log shows queued or
// running, so both read the same to a client.
func RequeueSnapshot(r *Run) {
	r.State = StateQueued
	r.Restarts++
	r.DispatchedAt = nil
	r.StartedAt = nil
	r.Worker = ""
	r.Result = nil
	r.Error = ""
}

// Finish transitions a running run to its terminal state: cancelled if err
// is a context cancellation, failed for any other error, succeeded
// otherwise. The result (may be nil on error) and FinishedAt are recorded.
func (s *MemStore) Finish(id string, result *Result, err error) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	if t.run.State != StateRunning {
		return t.run, fmt.Errorf("%w (state %s)", ErrNotRunning, t.run.State)
	}
	now := time.Now()
	t.run.FinishedAt = &now
	t.run.Result = result
	t.cancel = nil
	switch {
	case err == nil:
		t.run.State = StateSucceeded
	case errors.Is(err, context.Canceled):
		t.run.State = StateCancelled
		t.run.Error = err.Error()
	default:
		t.run.State = StateFailed
		t.run.Error = err.Error()
	}
	redactEdges(&t.run)
	s.file(t)
	close(t.done)
	return t.run, nil
}

// RedactTerminalSpec applies the terminal-snapshot edge redaction below to
// a run owned by the caller. It exists for the WAL store's recovery paths,
// which synthesize terminal snapshots (crash-cancelled runs, specs failing
// re-validation) outside Finish/Cancel and must uphold the same
// retained-memory bound.
func RedactTerminalSpec(r *Run) { redactEdges(r) }

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
func (s *MemStore) Await(ctx context.Context, id string) (Run, error) {
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
	// only removes terminal (never-again-mutated) entries, and Delete (the
	// submit-rollback path) closes done so waiters wake rather than hang —
	// they return the last snapshot taken below under the lock.
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
// cancelled (a dispatcher that later pops it will find Begin refusing). A
// running run has its cancel hook invoked; it stays running until the
// dispatcher observes the cancellation and calls Finish, at which point it
// lands in cancelled. Cancelling a terminal run returns ErrTerminal.
func (s *MemStore) Cancel(id string) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.runs[id]
	if !ok {
		return Run{}, ErrNotFound
	}
	switch t.run.State {
	case StateQueued:
		now := time.Now()
		t.run.State = StateCancelled
		t.run.Error = "cancelled while queued"
		t.run.FinishedAt = &now
		redactEdges(&t.run)
		s.file(t)
		close(t.done)
		return t.run, nil
	case StateRunning:
		if t.cancel != nil {
			t.cancel()
		}
		return t.run, nil
	default:
		return t.run, fmt.Errorf("%w (state %s)", ErrTerminal, t.run.State)
	}
}

// Close implements Store; the in-memory store holds no external resources.
func (s *MemStore) Close() error { return nil }
