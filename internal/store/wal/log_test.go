package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// TestRotationSurvivesFailedSegmentOpen takes the name of the next segment
// before the active one fills, so every rotation's O_EXCL open fails. The
// store must shrug that off: appends keep landing in the active segment,
// every acknowledged one replays, and once the name is free again the next
// rotation goes through.
func TestRotationSurvivesFailedSegmentOpen(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	l, _, err := open(dir, Options{SegmentMaxBytes: 512, CompactThreshold: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := l.store
	l.mu.Lock()
	blocker := filepath.Join(l.dir, segmentName(l.nextSeq))
	l.mu.Unlock()
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ { // one run's records alone pass 512 bytes: from here on every append tries to rotate
		ids = append(ids, finishRun(t, s))
	}
	if n := l.met.rotations.Value(); n != 0 {
		t.Fatalf("%v rotations went through with the successor's name taken", n)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, finishRun(t, s))
	if l.met.rotations.Value() == 0 {
		t.Fatal("no rotation went through once the name was free")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	replaysFinished(t, dir, ids)
}

// finishRun drives one run of s from create to succeeded and returns its ID.
func finishRun(t *testing.T, s *run.Store) string {
	t.Helper()
	r, err := s.Create(tinySpec())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		t.Fatalf("Begin(%s): %v", r.ID, err)
	}
	if _, err := s.Finish(r.ID, &run.Result{Nodes: 12, Match: true}, nil); err != nil {
		t.Fatalf("Finish(%s): %v", r.ID, err)
	}
	return r.ID
}

// replaysFinished reopens dir and checks that it holds exactly the runs
// ids, every one succeeded.
func replaysFinished(t *testing.T, dir string, ids []string) {
	t.Helper()
	s, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(recovered) != 0 || s.Len() != len(ids) {
		t.Fatalf("replay holds %d runs (%d recovered), want the %d acknowledged", s.Len(), len(recovered), len(ids))
	}
	for _, id := range ids {
		if got, err := s.Get(id); err != nil || got.State != run.StateSucceeded {
			t.Errorf("acknowledged run %s = %+v, %v after replay", id, got, err)
		}
	}
}

// TestFailedSyncIsSticky pins that a record whose fsync failed is never
// acknowledged: not when a later batch's fsync succeeds (on Linux a failed
// fsync can drop the dirty pages, and the next one on the file then
// succeeds without them), and not for anything appended after — the log
// refuses appends until a restart.
func TestFailedSyncIsSticky(t *testing.T) {
	l, _, err := open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("injected fsync failure")
	var syncs atomic.Int32
	l.sync = func(f *os.File) error {
		if syncs.Add(1) == 1 {
			return boom
		}
		return f.Sync()
	}
	commit := func() { // one batch's leader step, as a waiter behind the watermark runs it
		l.mu.Lock()
		defer l.mu.Unlock()
		l.commitLocked()
	}
	r := run.Run{ID: "r000001-aaaaaaaa", Spec: tinySpec(), CreatedAt: time.Now().Round(0)}
	first, err := l.Append(run.OpCreate, &r)
	if err != nil {
		t.Fatal(err)
	}
	commit() // the first batch: its sync fails
	// A second record in a batch whose sync succeeds. A correct log refuses
	// the append already; the waits below are what this test pins.
	l.Append(run.OpCancelReq, &r)
	commit()
	if syncs.Load() < 1 {
		t.Fatal("no sync was attempted")
	}
	if err := l.Wait(first); !errors.Is(err, boom) {
		t.Fatalf("Wait of a record whose sync failed = %v, want the sync's error", err)
	}
	if _, err := l.Append(run.OpFinish, &r); err == nil {
		t.Fatal("Append after a failed sync succeeded")
	}
}

// stacks returns every goroutine's stack but the caller's, keyed by the
// goroutine's header line ("goroutine N [state]:").
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	all := strings.Split(string(buf), "\n\n")
	out := make(map[string]string, len(all)-1)
	for _, g := range all[1:] { // the caller's own stack comes first
		header, _, _ := strings.Cut(g, "\n")
		id, _, _ := strings.Cut(header, " [")
		out[id] = g
	}
	return out
}

// TestLeaderFailureFailsParkedWaiters parks waiters behind a leader whose
// fsync fails: every one of them hears the failure within a second, and
// the log refuses the next append.
func TestLeaderFailureFailsParkedWaiters(t *testing.T) {
	const waiters = 6
	l, _, err := open(t.TempDir(), Options{Fsync: true, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("injected fsync failure")
	failed := make(chan struct{})
	var syncs atomic.Int32
	l.sync = func(*os.File) error {
		if syncs.Add(1) > 1 {
			return boom // Close's seal
		}
		defer close(failed)
		// Hold the batch until every other waiter is parked behind it.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			parked := 0
			for _, g := range stacks() {
				if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*walLog).Wait") {
					parked++
				}
			}
			if parked >= waiters-1 {
				return boom
			}
		}
		t.Error("the other waiters never parked behind the leader")
		return boom
	}
	r := run.Run{ID: "r000001-aaaaaaaa", Spec: tinySpec(), CreatedAt: time.Now().Round(0)}
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		ticket, err := l.Append(run.OpCreate, &r)
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- l.Wait(ticket) }()
	}
	<-failed
	timeout := time.After(time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, boom) {
				t.Errorf("Wait behind a failed fsync = %v, want the sync's error", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d waiters still parked a second after the leader's sync failed", waiters-i, waiters)
		}
	}
	if _, err := l.Append(run.OpFinish, &r); err == nil {
		t.Fatal("Append after a failed sync succeeded")
	}
}

// TestFailedSyncOnSealWithoutFsync pins the package doc's promise: without
// Fsync nothing waits on a sync, so a rotation whose seal fails to sync is
// only logged. Appends keep succeeding, and a reopen replays every
// acknowledged run.
func TestFailedSyncOnSealWithoutFsync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := open(dir, Options{SegmentMaxBytes: 512, CompactThreshold: -1, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int32
	l.sync = func(f *os.File) error {
		if syncs.Add(1) == 1 {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}
	var ids []string
	for i := 0; i < 8; i++ { // one run's records alone pass 512 bytes: every finish rotates
		ids = append(ids, finishRun(t, l.store))
	}
	if syncs.Load() < 2 || l.met.rotations.Value() == 0 {
		t.Fatalf("%d syncs, %v rotations: want the failed seal and later ones that went through", syncs.Load(), l.met.rotations.Value())
	}
	if err := l.store.Close(); err != nil {
		t.Fatal(err)
	}
	replaysFinished(t, dir, ids)
}

// TestNoGoroutineOfTheLog pins that group commit runs on its callers: with
// compaction off, a log under Fsync starts no goroutine, before or after an
// awaited append.
func TestNoGoroutineOfTheLog(t *testing.T) {
	const pkg = "internal/store/wal."
	before := stacks()
	s, _, err := Open(t.TempDir(), Options{Fsync: true, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create(tinySpec()); err != nil {
		t.Fatal(err)
	}
	for id, g := range stacks() {
		if _, old := before[id]; !old && strings.Contains(g, pkg) {
			t.Errorf("the log runs a goroutine of its own:\n%s", g)
		}
	}
}

// TestRecoverWaitsOnce pins that recovery's records share one fsync: a
// nil Wait on the last ticket makes every record before it durable, so K
// interrupted runs cost one fsync at boot, not K.
func TestRecoverWaitsOnce(t *testing.T) {
	const interrupted = 8
	dir := t.TempDir()
	s, _, err := Open(dir, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < interrupted; i++ {
		if _, err := s.Create(tinySpec()); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	l, recovered, err := open(dir, Options{Fsync: true, CompactThreshold: -1, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recovered) != interrupted {
		t.Fatalf("recovered %d runs, want %d", len(recovered), interrupted)
	}
	if n := l.met.fsyncs.Value(); n != 1 {
		t.Errorf("recovering %d runs cost %v fsyncs, want 1", interrupted, n)
	}
}
