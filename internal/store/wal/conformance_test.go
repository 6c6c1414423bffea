package wal_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
)

// TestStoreConformance is the run store's conformance suite, run against
// the store with no log and with each durable log configuration, so the
// dispatcher and API layers behave identically whether dagd logs or not:
// lifecycle, eviction, Await, and pagination order must read the same,
// which is what keeps logging observably invisible. The WAL rows are the
// default config, group-commit fsync, aggressive compaction (with and
// without fsync), segment rotation every few records (with and without
// fsync), and a store reopened on a data dir an earlier Open laid out and
// closed with no runs.
func TestStoreConformance(t *testing.T) {
	openIn := func(prepare func(t *testing.T, dir string), opts wal.Options) func(*testing.T) *run.Store {
		return func(t *testing.T) *run.Store {
			dir := t.TempDir()
			prepare(t, dir)
			s, recovered, err := wal.Open(dir, opts)
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			if len(recovered) != 0 {
				t.Fatalf("fresh dir recovered %d runs", len(recovered))
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
	}
	fresh := func(opts wal.Options) func(*testing.T) *run.Store {
		return openIn(func(*testing.T, string) {}, opts)
	}
	for _, cfg := range []struct {
		name string
		open func(*testing.T) *run.Store
	}{
		{"Memory", func(t *testing.T) *run.Store {
			s := run.NewMemStore()
			t.Cleanup(func() { s.Close() })
			return s
		}},
		{"Default", fresh(wal.Options{})},
		{"Fsync", fresh(wal.Options{Fsync: true})},
		// A tiny compaction threshold forces snapshot+truncate churn under
		// every scenario; with fsync, every swap shares the log with the
		// waiters leading group commits.
		{"AggressiveCompaction", fresh(wal.Options{CompactThreshold: 4})},
		{"FsyncAggressiveCompaction", fresh(wal.Options{Fsync: true, CompactThreshold: 4})},
		// A segment cap below a handful of records rotates the active
		// segment all through every scenario.
		{"SmallSegments", fresh(wal.Options{SegmentMaxBytes: 1024})},
		{"SmallSegmentsFsync", fresh(wal.Options{Fsync: true, SegmentMaxBytes: 1024})},
		// The MANIFEST and shard-00 a first boot leaves behind, with no
		// history yet: the second Open reads the layout instead of writing
		// it, and the store then behaves as a fresh one.
		{"ReopenedDir", openIn(func(t *testing.T, dir string) {
			s, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("first wal.Open: %v", err)
			}
			s.Close()
		}, wal.Options{})},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			open := cfg.open
			t.Run("Lifecycle", func(t *testing.T) { testLifecycle(t, open) })
			t.Run("WrongStateTransitions", func(t *testing.T) { testWrongStateTransitions(t, open) })
			t.Run("CancelQueued", func(t *testing.T) { testCancelQueued(t, open) })
			t.Run("CancelRunning", func(t *testing.T) { testCancelRunning(t, open) })
			t.Run("Await", func(t *testing.T) { testAwait(t, open) })
			t.Run("Eviction", func(t *testing.T) { testEviction(t, open) })
			t.Run("ListOrder", func(t *testing.T) { testListOrder(t, open) })
			t.Run("CursorStability", func(t *testing.T) { testCursorStability(t, open) })
			t.Run("Counts", func(t *testing.T) { testCounts(t, open) })
			t.Run("Requeue", func(t *testing.T) { testRequeue(t, open) })
			t.Run("AdmitDepth", func(t *testing.T) { testAdmitDepth(t, open) })
			t.Run("Drain", func(t *testing.T) { testDrain(t, open) })
			t.Run("Hammer", func(t *testing.T) { testHammer(t, open) })
		})
	}
}

func spec() run.Spec {
	// Tenant-bearing, so every configuration proves attribution survives
	// each transition (and, with a durable log, a replay) unchanged.
	return run.Spec{
		Config:   gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2},
		Tenant:   "conformance-tenant",
		Priority: 2,
	}
}

func create(t *testing.T, s *run.Store) run.Run {
	t.Helper()
	r, err := s.Create(spec())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return r
}

func begin(t *testing.T, s *run.Store, id string) run.Run {
	t.Helper()
	r, err := s.Begin(id, time.Now(), "", func() {})
	if err != nil {
		t.Fatalf("Begin(%s): %v", id, err)
	}
	return r
}

func finish(t *testing.T, s *run.Store, id string, res *run.Result, runErr error) run.Run {
	t.Helper()
	r, err := s.Finish(id, res, runErr)
	if err != nil {
		t.Fatalf("Finish(%s): %v", id, err)
	}
	return r
}

// finished creates a run and drives it to succeeded.
func finished(t *testing.T, s *run.Store) run.Run {
	t.Helper()
	r := create(t, s)
	begin(t, s, r.ID)
	return finish(t, s, r.ID, &run.Result{Match: true}, nil)
}

func testLifecycle(t *testing.T, open func(*testing.T) *run.Store) {
	cases := []struct {
		name      string
		runErr    error
		wantState run.State
		wantError bool
	}{
		{"success", nil, run.StateSucceeded, false},
		{"failure", errors.New("boom"), run.StateFailed, true},
		{"cancellation", fmt.Errorf("aborted: %w", context.Canceled), run.StateCancelled, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t)
			r := create(t, s)
			if r.ID == "" || r.State != run.StateQueued || r.CreatedAt.IsZero() {
				t.Fatalf("Create = %+v, want queued with ID and CreatedAt", r)
			}
			if got, err := s.Get(r.ID); err != nil || got.State != run.StateQueued {
				t.Fatalf("Get(created) = %+v, %v; want queued", got, err)
			}

			b := begin(t, s, r.ID)
			if b.State != run.StateRunning || b.StartedAt == nil {
				t.Fatalf("Begin = %+v, want running with StartedAt", b)
			}

			var res *run.Result
			if !tc.wantError {
				res = &run.Result{Nodes: 12, Match: true}
			}
			f := finish(t, s, r.ID, res, tc.runErr)
			if f.State != tc.wantState {
				t.Fatalf("Finish state = %s, want %s", f.State, tc.wantState)
			}
			if f.FinishedAt == nil {
				t.Error("Finish left FinishedAt nil")
			}
			if !f.State.Terminal() {
				t.Errorf("state %s not terminal after Finish", f.State)
			}
			if tc.wantError && f.Error == "" {
				t.Error("error outcome recorded no Error text")
			}
			if !tc.wantError && f.Result == nil {
				t.Error("success lost its Result")
			}
			// Snapshots are isolated: the queued snapshot from Create must
			// not have been mutated by later transitions.
			if r.State != run.StateQueued {
				t.Error("earlier snapshot mutated by later transition")
			}
			// Tenant attribution rides the spec through every transition.
			if f.Spec.Tenant != "conformance-tenant" || f.Spec.Priority != 2 {
				t.Errorf("terminal spec attribution = %q/%d, want conformance-tenant/2",
					f.Spec.Tenant, f.Spec.Priority)
			}
		})
	}
}

func testWrongStateTransitions(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	if _, err := s.Get("nope"); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Begin("nope", time.Now(), "", func() {}); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Begin(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Finish("nope", nil, nil); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Finish(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("nope"); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Cancel(missing) = %v, want ErrNotFound", err)
	}

	r := create(t, s)
	if _, err := s.Finish(r.ID, nil, nil); !errors.Is(err, run.ErrNotRunning) {
		t.Errorf("Finish(queued) = %v, want ErrNotRunning", err)
	}
	begin(t, s, r.ID)
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); !errors.Is(err, run.ErrNotQueued) {
		t.Errorf("Begin(running) = %v, want ErrNotQueued", err)
	}
	finish(t, s, r.ID, &run.Result{Match: true}, nil)
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); !errors.Is(err, run.ErrNotQueued) {
		t.Errorf("Begin(terminal) = %v, want ErrNotQueued", err)
	}
	if _, err := s.Finish(r.ID, nil, nil); !errors.Is(err, run.ErrNotRunning) {
		t.Errorf("Finish(terminal) = %v, want ErrNotRunning", err)
	}
}

func testCancelQueued(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	r := create(t, s)
	c, err := s.Cancel(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != run.StateCancelled || c.FinishedAt == nil {
		t.Fatalf("Cancel(queued) = %+v, want cancelled with FinishedAt", c)
	}
	// A dispatcher popping this ID later must be refused.
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); !errors.Is(err, run.ErrNotQueued) {
		t.Errorf("Begin after cancel = %v, want ErrNotQueued", err)
	}
	if _, err := s.Cancel(r.ID); !errors.Is(err, run.ErrTerminal) {
		t.Errorf("second Cancel = %v, want ErrTerminal", err)
	}
}

func testCancelRunning(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	r := create(t, s)
	fired := false
	if _, err := s.Begin(r.ID, time.Now(), "", func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	c, err := s.Cancel(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("cancel hook not invoked")
	}
	// The run stays running until the dispatcher observes the cancellation,
	// carrying the acknowledgement; the terminal snapshot keeps it.
	if c.State != run.StateRunning || !c.CancelRequested {
		t.Errorf("Cancel(running) = state %s, CancelRequested %v; want running, true", c.State, c.CancelRequested)
	}
	f := finish(t, s, r.ID, nil, context.Canceled)
	if f.State != run.StateCancelled || !f.CancelRequested {
		t.Errorf("after Finish(Canceled) = state %s, CancelRequested %v; want cancelled, true", f.State, f.CancelRequested)
	}
}

func testAwait(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	if _, err := s.Await(context.Background(), "nope"); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Await(missing) = %v, want ErrNotFound", err)
	}

	// Terminal runs return immediately.
	done := finished(t, s)
	if r, err := s.Await(context.Background(), done.ID); err != nil || r.State != run.StateSucceeded {
		t.Fatalf("Await(terminal) = %+v, %v; want succeeded", r, err)
	}

	// A parked waiter is released by Finish with the terminal snapshot.
	live := create(t, s)
	begin(t, s, live.ID)
	got := make(chan run.Run, 1)
	go func() {
		r, err := s.Await(context.Background(), live.ID)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	finish(t, s, live.ID, nil, errors.New("boom"))
	select {
	case r := <-got:
		if r.State != run.StateFailed || r.Error != "boom" {
			t.Errorf("released Await = %+v, want failed/boom", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Await never released after Finish")
	}

	// A ctx timeout returns the current non-terminal snapshot, not an error.
	waiting := create(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if r, err := s.Await(ctx, waiting.ID); err != nil || r.State != run.StateQueued {
		t.Errorf("Await(timeout) = %+v, %v; want queued snapshot", r, err)
	}
}

func testEviction(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	var ids []string
	for i := 0; i < 10; i++ {
		r := finished(t, s)
		ids = append(ids, r.ID)
		// FinishedAt stamps come from time.Now(); keep them strictly
		// increasing so "oldest-finished" is unambiguous on coarse clocks.
		time.Sleep(time.Millisecond)
	}
	queued := create(t, s).ID
	running := create(t, s).ID
	begin(t, s, running)

	if got := s.EvictTerminal(0); got != 0 {
		t.Errorf("EvictTerminal(0) = %d, want 0 (unlimited retention)", got)
	}
	if got := s.EvictTerminal(-1); got != 0 {
		t.Errorf("EvictTerminal(-1) = %d, want 0 (unlimited retention)", got)
	}
	if got := s.EvictTerminal(3); got != 7 {
		t.Fatalf("EvictTerminal(3) = %d, want 7", got)
	}
	for _, id := range ids[:7] {
		if _, err := s.Get(id); !errors.Is(err, run.ErrNotFound) {
			t.Errorf("oldest-finished run %s survived eviction", id)
		}
	}
	for _, id := range ids[7:] {
		if _, err := s.Get(id); err != nil {
			t.Errorf("newest-finished run %s evicted: %v", id, err)
		}
	}
	// Non-terminal runs are never eviction victims.
	for _, id := range []string{queued, running} {
		if _, err := s.Get(id); err != nil {
			t.Errorf("non-terminal run %s evicted: %v", id, err)
		}
	}
	if got := s.EvictTerminal(3); got != 0 {
		t.Errorf("eviction not idempotent: second EvictTerminal(3) = %d", got)
	}

	// Runs cancelled while queued take their place in the finish order
	// between finished ones: EvictTerminal(4) over the 9 terminal runs
	// below evicts exactly the 5 oldest-finished.
	order := append([]string(nil), ids[7:]...)
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			r := create(t, s)
			if _, err := s.Cancel(r.ID); err != nil {
				t.Fatalf("Cancel(queued): %v", err)
			}
			order = append(order, r.ID)
		} else {
			order = append(order, finished(t, s).ID)
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.EvictTerminal(4); got != 5 {
		t.Fatalf("EvictTerminal(4) over 9 terminal runs = %d, want 5", got)
	}
	for i, id := range order {
		_, err := s.Get(id)
		if gone := i < 5; gone != errors.Is(err, run.ErrNotFound) {
			t.Errorf("finish-order position %d (%s): Get = %v, want gone=%v", i, id, err, gone)
		}
	}
	for _, id := range []string{queued, running} {
		if _, err := s.Get(id); err != nil {
			t.Errorf("non-terminal run %s evicted: %v", id, err)
		}
	}
}

// testHammer is the -race case: writers drive whole lifecycles and evict
// after every finish, the way the dispatcher does, while readers list,
// count and long-poll. Afterwards exactly keep terminal runs remain, the
// bystanders are as they were, and no Await that found its run came back
// with anything but a terminal snapshot.
func testHammer(t *testing.T, open func(*testing.T) *run.Store) {
	const writers, cycles, keep = 8, 40, 16
	s := open(t)
	queued := create(t, s).ID
	running := create(t, s).ID
	begin(t, s, running)

	stop := make(chan struct{})
	var readers, work sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				list := s.List()
				for i := 1; i < len(list); i++ {
					if run.CompareRuns(list[i-1], list[i]) >= 0 {
						t.Errorf("List out of order at %d", i)
					}
				}
				if n := s.CountByState()[run.StateRunning]; n < 1 || n > 1+writers {
					t.Errorf("CountByState[running] = %d, want 1..%d", n, 1+writers)
				}
				// Yield, or on a small box a writer woken by the RUnlock
				// above waits out a preemption tick for a P.
				runtime.Gosched()
			}
		}()
	}
	var awaited atomic.Int64
	for w := 0; w < writers; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for i := 0; i < cycles; i++ {
				r, err := s.Create(spec())
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				work.Add(1)
				go func() {
					defer work.Done()
					// The run may already be finished and evicted by the
					// time this goroutine is scheduled; found, it is terminal.
					got, err := s.Await(context.Background(), r.ID)
					switch {
					case err == nil && got.State.Terminal():
						awaited.Add(1)
					case !errors.Is(err, run.ErrNotFound):
						t.Errorf("Await(%s) = state %s, %v; want a terminal snapshot", r.ID, got.State, err)
					}
				}()
				if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
					t.Errorf("Begin: %v", err)
				}
				if _, err := s.Finish(r.ID, &run.Result{Match: true}, nil); err != nil {
					t.Errorf("Finish: %v", err)
				}
				s.EvictTerminal(keep)
			}
		}()
	}
	work.Wait()
	close(stop)
	readers.Wait()

	counts := s.CountByState()
	if counts[run.StateSucceeded] != keep || s.Len() != keep+2 {
		t.Errorf("after the hammer: %d succeeded of %d runs, want %d of %d", counts[run.StateSucceeded], s.Len(), keep, keep+2)
	}
	if r, err := s.Get(queued); err != nil || r.State != run.StateQueued {
		t.Errorf("queued bystander = %+v, %v", r, err)
	}
	if r, err := s.Get(running); err != nil || r.State != run.StateRunning {
		t.Errorf("running bystander = %+v, %v", r, err)
	}
	if awaited.Load() == 0 {
		t.Error("no Await ever observed its run")
	}
}

func testListOrder(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	ids := make(map[string]bool)
	for i := 0; i < 50; i++ {
		ids[create(t, s).ID] = true
	}
	list := s.List()
	if len(list) != 50 {
		t.Fatalf("List len = %d, want 50", len(list))
	}
	for i := 1; i < len(list); i++ {
		if run.CompareRuns(list[i-1], list[i]) >= 0 {
			t.Fatalf("List out of (CreatedAt, ID) order at %d: %s !< %s",
				i, list[i-1].ID, list[i].ID)
		}
	}
	for _, r := range list {
		if !ids[r.ID] {
			t.Fatalf("List returned unknown run %s", r.ID)
		}
		delete(ids, r.ID)
	}
	if s.Len() != 50 {
		t.Errorf("Len = %d, want 50", s.Len())
	}
}

// testCursorStability walks the store the way the API's cursor pagination
// does — strictly-after filtering with run.CompareToCursor over List — and
// checks the walk visits exactly List's runs in order, even when runs are
// evicted between pages.
func testCursorStability(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	for i := 0; i < 20; i++ {
		r := finished(t, s)
		_ = r
	}
	full := s.List()
	if len(full) != 20 {
		t.Fatalf("List len = %d, want 20", len(full))
	}

	page := func(afterNanos int64, afterID string, limit int) []run.Run {
		var out []run.Run
		for _, r := range s.List() {
			if run.CompareToCursor(r, afterNanos, afterID) > 0 {
				out = append(out, r)
				if len(out) == limit {
					break
				}
			}
		}
		return out
	}

	var walked []run.Run
	var curNanos int64 = -1 << 62
	curID := ""
	for {
		p := page(curNanos, curID, 3)
		if len(p) == 0 {
			break
		}
		walked = append(walked, p...)
		last := p[len(p)-1]
		curNanos, curID = last.CreatedAt.UnixNano(), last.ID
	}
	if len(walked) != len(full) {
		t.Fatalf("cursor walk visited %d runs, List has %d", len(walked), len(full))
	}
	for i := range walked {
		if walked[i].ID != full[i].ID {
			t.Fatalf("cursor walk diverged from List at %d: %s != %s", i, walked[i].ID, full[i].ID)
		}
	}

	// Eviction mid-walk must not shift later pages: take one page, evict
	// down to the newest 5 runs, and resume — the remaining pages are
	// exactly the surviving runs after the cursor, each visited once.
	first := page(-1<<62, "", 3)
	s.EvictTerminal(5)
	survivors := s.List()
	if len(survivors) != 5 {
		t.Fatalf("after EvictTerminal(5): %d runs, want 5", len(survivors))
	}
	last := first[len(first)-1]
	rest := page(last.CreatedAt.UnixNano(), last.ID, 1000)
	want := 0
	for _, r := range survivors {
		if run.CompareToCursor(r, last.CreatedAt.UnixNano(), last.ID) > 0 {
			want++
		}
	}
	if len(rest) != want {
		t.Errorf("resumed walk returned %d runs, want %d survivors after cursor", len(rest), want)
	}
	seen := make(map[string]bool)
	for _, r := range rest {
		if seen[r.ID] {
			t.Errorf("resumed walk returned %s twice", r.ID)
		}
		seen[r.ID] = true
	}
}

// testRequeue exercises the lease-expiry path in its two outcomes. A
// running run drops back to queued with Restarts incremented, execution
// fields cleared, attribution intact, and Await waiters still parked until
// the retry finishes. A running run with a cancel acknowledged ends
// cancelled instead: Restarts unchanged, Await released, and filed as
// terminal history that EvictTerminal counts.
func testRequeue(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)

	if _, err := s.Requeue("nope"); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("Requeue(missing) = %v, want ErrNotFound", err)
	}

	r := create(t, s)
	if _, err := s.Requeue(r.ID); !errors.Is(err, run.ErrNotRunning) {
		t.Errorf("Requeue(queued) = %v, want ErrNotRunning", err)
	}

	if _, err := s.Begin(r.ID, time.Now(), "worker-1", func() {}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(r.ID); got.Worker != "worker-1" {
		t.Errorf("Worker after Begin = %q, want worker-1", got.Worker)
	}

	// Park a waiter; it must survive the requeue and only release at the
	// retry's terminal state.
	got := make(chan run.Run, 1)
	go func() {
		w, err := s.Await(context.Background(), r.ID)
		if err != nil {
			t.Error(err)
		}
		got <- w
	}()
	time.Sleep(10 * time.Millisecond)

	q, err := s.Requeue(r.ID)
	if err != nil {
		t.Fatalf("Requeue(running): %v", err)
	}
	if q.State != run.StateQueued || q.Restarts != 1 {
		t.Fatalf("Requeue = state %s restarts %d, want queued/1", q.State, q.Restarts)
	}
	if q.Worker != "" || q.DispatchedAt != nil || q.StartedAt != nil || q.Error != "" || q.Result != nil {
		t.Errorf("Requeue left execution fields set: %+v", q)
	}
	if q.Spec.Tenant != "conformance-tenant" || q.Spec.Priority != 2 {
		t.Errorf("Requeue lost attribution: %q/%d", q.Spec.Tenant, q.Spec.Priority)
	}
	select {
	case w := <-got:
		t.Fatalf("Await released by Requeue with state %s; must wait for the retry", w.State)
	case <-time.After(20 * time.Millisecond):
	}

	// The retry runs to completion on another worker; the waiter releases
	// with the terminal snapshot and the retry's attribution.
	if _, err := s.Begin(r.ID, time.Now(), "worker-2", func() {}); err != nil {
		t.Fatalf("Begin(retry): %v", err)
	}
	f := finish(t, s, r.ID, &run.Result{Match: true}, nil)
	if f.Worker != "worker-2" || f.Restarts != 1 {
		t.Errorf("terminal snapshot worker/restarts = %q/%d, want worker-2/1", f.Worker, f.Restarts)
	}
	select {
	case w := <-got:
		if w.State != run.StateSucceeded {
			t.Errorf("released Await state = %s, want succeeded", w.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Await never released after the retry finished")
	}

	if _, err := s.Requeue(r.ID); !errors.Is(err, run.ErrNotRunning) {
		t.Errorf("Requeue(terminal) = %v, want ErrNotRunning", err)
	}

	// The lease expires with a cancellation acknowledged but not yet acted
	// on: the acknowledgement is honoured, and the run never executes again.
	c := create(t, s)
	if _, err := s.Begin(c.ID, time.Now(), "worker-1", func() {}); err != nil {
		t.Fatal(err)
	}
	got = make(chan run.Run, 1)
	go func() {
		w, err := s.Await(context.Background(), c.ID)
		if err != nil {
			t.Error(err)
		}
		got <- w
	}()
	if a, err := s.Cancel(c.ID); err != nil || !a.CancelRequested {
		t.Fatalf("Cancel(running) = %+v, %v; want CancelRequested", a, err)
	}
	x, err := s.Requeue(c.ID)
	if err != nil {
		t.Fatalf("Requeue(running, cancel acknowledged): %v", err)
	}
	if x.State != run.StateCancelled || x.Restarts != 0 || !x.CancelRequested || x.FinishedAt == nil || x.Error == "" {
		t.Fatalf("Requeue with a cancel acknowledged = %+v, want cancelled with restarts 0", x)
	}
	select {
	case w := <-got:
		if w.State != run.StateCancelled {
			t.Errorf("released Await state = %s, want cancelled", w.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Await never released by a Requeue that cancelled the run")
	}
	// Both runs are terminal history: keeping one evicts the older, r.
	if n := s.EvictTerminal(1); n != 1 {
		t.Fatalf("EvictTerminal(1) = %d, want 1", n)
	}
	if _, err := s.Get(c.ID); err != nil {
		t.Errorf("the newest terminal run was evicted: %v", err)
	}
	if _, err := s.Requeue(c.ID); !errors.Is(err, run.ErrNotRunning) {
		t.Errorf("Requeue(cancelled) = %v, want ErrNotRunning", err)
	}
}

// headOf returns a BeginNext pick that starts q's head whenever q holds a
// run.
func headOf(q *run.Queue) func() *run.Queue {
	return func() *run.Queue {
		if q.Len() > 0 {
			return q
		}
		return nil
	}
}

// testAdmitDepth: Admit's depth bound counts the tenant's queued runs, a
// refusal leaves nothing behind, and a run leaving the queue frees its
// place. Depth 0 is no bound.
func testAdmitDepth(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	q := s.Queue(spec().Tenant)
	var admitted []run.Run
	for i := 0; i < 2; i++ {
		r, err := s.Admit(spec(), 2)
		if err != nil {
			t.Fatalf("Admit %d within depth 2: %v", i, err)
		}
		admitted = append(admitted, r)
	}
	if _, err := s.Admit(spec(), 2); !errors.Is(err, run.ErrQueueFull) {
		t.Fatalf("Admit beyond depth 2 = %v, want ErrQueueFull", err)
	}
	if s.Len() != 2 || q.Len() != 2 {
		t.Errorf("after a refused Admit: Len = %d, queue holds %d; want 2 and 2", s.Len(), q.Len())
	}
	got, _, err := s.BeginNext(context.Background(), headOf(q), "w", func(string) {})
	if err != nil || got.ID != admitted[0].ID || got.State != run.StateRunning {
		t.Fatalf("BeginNext = %s %s, %v; want the oldest admitted %s running", got.ID, got.State, err, admitted[0].ID)
	}
	if _, err := s.Admit(spec(), 2); err != nil {
		t.Errorf("Admit into the place a begun run freed: %v", err)
	}
	if _, err := s.Admit(spec(), 0); err != nil {
		t.Errorf("Admit with no depth bound over a full queue: %v", err)
	}
	if q.Len() != 3 {
		t.Errorf("queue holds %d, want 3", q.Len())
	}
}

// testDrain: once Drain has begun, Admit refuses while BeginNext still
// hands out what is queued; Drain returns only when nothing is queued or
// running, and BeginNext then reports ErrDraining.
func testDrain(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	q := s.Queue(spec().Tenant)
	ctx := context.Background()
	first, second := create(t, s), create(t, s)
	if got, _, err := s.BeginNext(ctx, headOf(q), "w", func(string) {}); err != nil || got.ID != first.ID {
		t.Fatalf("BeginNext = %s, %v; want %s", got.ID, err, first.ID)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); !s.Draining(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Drain never began")
		}
	}
	if _, err := s.Admit(spec(), 0); !errors.Is(err, run.ErrDraining) {
		t.Errorf("Admit while draining = %v, want ErrDraining", err)
	}
	if got, _, err := s.BeginNext(ctx, headOf(q), "w", func(string) {}); err != nil || got.ID != second.ID {
		t.Fatalf("BeginNext while draining = %s, %v; want the queued %s", got.ID, err, second.ID)
	}
	finish(t, s, first.ID, &run.Result{Match: true}, nil)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with %s still running", err, second.ID)
	case <-time.After(20 * time.Millisecond):
	}
	finish(t, s, second.ID, &run.Result{Match: true}, nil)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
	if _, _, err := s.BeginNext(ctx, headOf(q), "w", func(string) {}); !errors.Is(err, run.ErrDraining) {
		t.Errorf("BeginNext after the drain = %v, want ErrDraining", err)
	}
	if n := s.CountByState()[run.StateSucceeded]; n != 2 {
		t.Errorf("%d runs succeeded, want 2", n)
	}
}

func testCounts(t *testing.T, open func(*testing.T) *run.Store) {
	s := open(t)
	finished(t, s)
	finished(t, s)
	r := create(t, s)
	begin(t, s, r.ID)
	finish(t, s, r.ID, nil, errors.New("boom"))
	create(t, s)
	running := create(t, s)
	begin(t, s, running.ID)

	counts := s.CountByState()
	want := map[run.State]int{
		run.StateSucceeded: 2,
		run.StateFailed:    1,
		run.StateQueued:    1,
		run.StateRunning:   1,
	}
	for state, n := range want {
		if counts[state] != n {
			t.Errorf("CountByState[%s] = %d, want %d", state, counts[state], n)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}
