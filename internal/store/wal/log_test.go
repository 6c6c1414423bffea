package wal

import (
	"errors"
	"os"
	"path/filepath"
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
	drive := func() {
		t.Helper()
		r, err := s.Create(tinySpec())
		if err != nil {
			t.Fatalf("Create after %d runs: %v", len(ids), err)
		}
		if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
			t.Fatalf("Begin after %d runs: %v", len(ids), err)
		}
		if _, err := s.Finish(r.ID, &run.Result{Nodes: 12, Match: true}, nil); err != nil {
			t.Fatalf("Finish after %d runs: %v", len(ids), err)
		}
		ids = append(ids, r.ID)
	}
	for i := 0; i < 8; i++ { // one run's records alone pass 512 bytes: from here on every append tries to rotate
		drive()
	}
	if n := l.met.rotations.Value(); n != 0 {
		t.Fatalf("%v rotations went through with the successor's name taken", n)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	drive()
	if l.met.rotations.Value() == 0 {
		t.Fatal("no rotation went through once the name was free")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recovered) != 0 || s2.Len() != len(ids) {
		t.Fatalf("replay holds %d runs (%d recovered), want the %d acknowledged", s2.Len(), len(recovered), len(ids))
	}
	for _, id := range ids {
		if got, err := s2.Get(id); err != nil || got.State != run.StateSucceeded {
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
	r := run.Run{ID: "r000001-aaaaaaaa", Spec: tinySpec(), CreatedAt: time.Now().Round(0)}
	first, err := l.Append(run.OpCreate, &r)
	if err != nil {
		t.Fatal(err)
	}
	l.gc.commit(l) // the first batch: its sync fails
	// A second record in a batch whose sync succeeds. A correct log refuses
	// the append already; the waits below are what this test pins.
	l.Append(run.OpCancelReq, &r)
	l.gc.commit(l)
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
