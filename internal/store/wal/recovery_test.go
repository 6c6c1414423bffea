package wal_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

func pipelineSpec() run.Spec {
	return run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}}
}

func mustOpen(t *testing.T, dir string, opts wal.Options) (*wal.Store, []run.Run) {
	t.Helper()
	s, recovered, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	return s, recovered
}

func mustCreate(t *testing.T, s *wal.Store, spec run.Spec) run.Run {
	t.Helper()
	r, err := s.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return r
}

func drive(t *testing.T, s *wal.Store, id string, runErr error) run.Run {
	t.Helper()
	if _, err := s.Begin(id, time.Now(), "", func() {}); err != nil {
		t.Fatalf("Begin(%s): %v", id, err)
	}
	var res *run.Result
	if runErr == nil {
		res = &run.Result{Nodes: 12, SinkPaths: 3, Match: true}
	}
	r, err := s.Finish(id, res, runErr)
	if err != nil {
		t.Fatalf("Finish(%s): %v", id, err)
	}
	return r
}

// listWALFiles returns the data dir's segment and snapshot files as paths
// relative to dir (walking the shard directories), sorted.
func listWALFiles(t *testing.T, dir string) (segs, snaps []string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return rerr
		}
		switch {
		case strings.HasPrefix(d.Name(), "wal-"):
			segs = append(segs, rel)
		case strings.HasPrefix(d.Name(), "snapshot-"):
			snaps = append(snaps, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	sort.Strings(snaps)
	return segs, snaps
}

// TestRecovery is the core durability contract: terminal runs survive a
// restart byte-for-byte, and queued/running runs are re-admitted as queued
// with the interrupted → queued transition recorded in Restarts.
func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})

	succeeded := mustCreate(t, s, pipelineSpec())
	drive(t, s, succeeded.ID, nil)
	failed := mustCreate(t, s, pipelineSpec())
	drive(t, s, failed.ID, errors.New("boom"))
	cancelled := mustCreate(t, s, pipelineSpec())
	if _, err := s.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	queued := mustCreate(t, s, pipelineSpec())
	running := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(running.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	before := s.List()
	// No graceful close: simulate a crash by abandoning the handle. (The
	// OS page cache holds the appended records; SIGKILL-level durability is
	// exactly what the e2e test exercises against a real process.)
	s.Close()

	s2, recovered := mustOpen(t, dir, wal.Options{})
	defer s2.Close()

	// Terminal runs are history: state, result, error, and timestamps all
	// survive, and List order (CreatedAt, ID) is unchanged.
	for _, want := range []struct {
		id    string
		state run.State
	}{
		{succeeded.ID, run.StateSucceeded},
		{failed.ID, run.StateFailed},
		{cancelled.ID, run.StateCancelled},
	} {
		got, err := s2.Get(want.id)
		if err != nil {
			t.Fatalf("Get(%s) after restart: %v", want.id, err)
		}
		if got.State != want.state {
			t.Errorf("run %s state = %s after restart, want %s", want.id, got.State, want.state)
		}
		if got.Restarts != 0 {
			t.Errorf("terminal run %s has Restarts = %d, want 0", want.id, got.Restarts)
		}
		if got.FinishedAt == nil {
			t.Errorf("terminal run %s lost FinishedAt", want.id)
		}
	}
	if got, _ := s2.Get(succeeded.ID); got.Result == nil || got.Result.SinkPaths != 3 || !got.Result.Match {
		t.Errorf("succeeded run lost its Result: %+v", got.Result)
	}
	if got, _ := s2.Get(failed.ID); got.Error != "boom" {
		t.Errorf("failed run error = %q, want boom", got.Error)
	}

	// Interrupted runs (queued or running at crash) come back queued.
	if len(recovered) != 2 {
		t.Fatalf("recovered %d runs, want 2 (queued + running)", len(recovered))
	}
	wantInterrupted := map[string]bool{queued.ID: true, running.ID: true}
	for _, r := range recovered {
		if !wantInterrupted[r.ID] {
			t.Errorf("unexpected recovered run %s", r.ID)
		}
		if r.State != run.StateQueued {
			t.Errorf("recovered run %s state = %s, want queued", r.ID, r.State)
		}
		if r.StartedAt != nil {
			t.Errorf("recovered run %s still has StartedAt", r.ID)
		}
		if r.Restarts != 1 {
			t.Errorf("recovered run %s Restarts = %d, want 1", r.ID, r.Restarts)
		}
	}

	after := s2.List()
	if len(after) != len(before) {
		t.Fatalf("List has %d runs after restart, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].ID != before[i].ID {
			t.Fatalf("List order changed at %d: %s != %s", i, after[i].ID, before[i].ID)
		}
		if !after[i].CreatedAt.Equal(before[i].CreatedAt) {
			t.Errorf("run %s CreatedAt drifted across restart", after[i].ID)
		}
	}
}

// TestRecoveryTwice pins that a second crash before the interrupted run
// executes bumps Restarts again — the requeue records themselves are
// replayed.
func TestRecoveryTwice(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})
	r := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec2 := mustOpen(t, dir, wal.Options{})
	if len(rec2) != 1 || rec2[0].Restarts != 1 {
		t.Fatalf("first recovery = %+v, want one run with Restarts 1", rec2)
	}
	s2.Close()

	s3, rec3 := mustOpen(t, dir, wal.Options{})
	defer s3.Close()
	if len(rec3) != 1 || rec3[0].Restarts != 2 {
		t.Fatalf("second recovery = %+v, want one run with Restarts 2", rec3)
	}
	// And it is still executable: drive it to terminal.
	got := drive(t, s3, rec3[0].ID, nil)
	if got.State != run.StateSucceeded || got.Restarts != 2 {
		t.Errorf("recovered run finished as %+v, want succeeded with Restarts 2", got)
	}
}

// TestEvictionAndDeletePersist pins the two ways a run leaves the store.
// A delete is a logged transition: the run stays gone after a restart. An
// eviction is not logged: replay hands the victims back, and re-applying
// the bound leaves exactly the runs that were retained before the restart.
func TestEvictionAndDeletePersist(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})
	var ids []string
	for i := 0; i < 6; i++ {
		r := mustCreate(t, s, pipelineSpec())
		drive(t, s, r.ID, nil)
		ids = append(ids, r.ID)
	}
	if n := s.EvictTerminal(2); n != 4 {
		t.Fatalf("EvictTerminal(2) = %d, want 4", n)
	}
	dropped := mustCreate(t, s, pipelineSpec())
	if err := s.Delete(dropped.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, recovered := mustOpen(t, dir, wal.Options{})
	defer s2.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered %d runs, want 0", len(recovered))
	}
	if _, err := s2.Get(dropped.ID); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("deleted run %s resurrected by replay", dropped.ID)
	}
	// Nothing compacted in between, so replay saw all six.
	if n := s2.EvictTerminal(2); n != 4 {
		t.Fatalf("EvictTerminal(2) after restart = %d, want 4", n)
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("Len after restart = %d, want 2 retained runs", got)
	}
	for _, id := range ids[:4] {
		if _, err := s2.Get(id); !errors.Is(err, run.ErrNotFound) {
			t.Errorf("evicted run %s survived the bound after restart", id)
		}
	}
	for _, id := range ids[4:] {
		if got, err := s2.Get(id); err != nil || got.State != run.StateSucceeded {
			t.Errorf("retained run %s after restart = %+v, %v", id, got, err)
		}
	}
}

// TestReplayOrderAtScale reopens a data dir holding 20 000 terminal runs,
// written under unlimited retention. Open hands that history to the
// MemStore in finish order (restoring it in replay's map order is quadratic
// and this test crawls), so the first EvictTerminal(10) after boot leaves
// exactly the 10 newest by the records' FinishedAt — and a second boot,
// once the same bound is applied to what it replayed, shows the same 10.
func TestReplayOrderAtScale(t *testing.T) {
	const total, keep = 20000, 10
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})
	for i := 0; i < total; i++ {
		drive(t, s, mustCreate(t, s, pipelineSpec()).ID, nil)
	}
	s.Close()

	s2, recovered := mustOpen(t, dir, wal.Options{})
	if len(recovered) != 0 || s2.Len() != total {
		t.Fatalf("reopen: %d runs, %d recovered; want %d, 0", s2.Len(), len(recovered), total)
	}
	history := s2.List()
	sort.Slice(history, func(i, j int) bool { return run.CompareFinished(history[i], history[j]) < 0 })
	want := make(map[string]bool, keep)
	for _, r := range history[total-keep:] {
		want[r.ID] = true
	}
	if n := s2.EvictTerminal(keep); n != total-keep {
		t.Fatalf("EvictTerminal(%d) = %d, want %d", keep, n, total-keep)
	}
	survivors := func(s *wal.Store) {
		t.Helper()
		list := s.List()
		if len(list) != keep {
			t.Fatalf("%d runs survive, want %d", len(list), keep)
		}
		for _, r := range list {
			if !want[r.ID] {
				t.Errorf("run %s (finished %v) survived; not among the %d newest-finished", r.ID, r.FinishedAt, keep)
			}
		}
	}
	survivors(s2)
	s2.Close()

	s3, _ := mustOpen(t, dir, wal.Options{})
	defer s3.Close()
	s3.EvictTerminal(keep)
	survivors(s3)
}

// TestSegmentRotation forces tiny segments and checks the log splits while
// replay still sees one coherent history. Shards: 1 so every record hits
// the same segment chain and the rotation count is deterministic.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{SegmentMaxBytes: 512, CompactThreshold: -1, Shards: 1})
	for i := 0; i < 20; i++ {
		r := mustCreate(t, s, pipelineSpec())
		drive(t, s, r.ID, nil)
	}
	segs, _ := listWALFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	s.Close()

	s2, _ := mustOpen(t, dir, wal.Options{SegmentMaxBytes: 512, CompactThreshold: -1})
	defer s2.Close()
	if got := s2.Len(); got != 20 {
		t.Errorf("replay across %d segments found %d runs, want 20", len(segs), got)
	}
	if got := s2.CountByState()[run.StateSucceeded]; got != 20 {
		t.Errorf("succeeded after replay = %d, want 20", got)
	}
}

// TestCompaction pins that crossing the threshold collapses the log into a
// snapshot file, removes older segments, and that the compacted state
// replays identically.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{CompactThreshold: 10, SegmentMaxBytes: 256, Shards: 1})
	var last run.Run
	for i := 0; i < 15; i++ {
		r := mustCreate(t, s, pipelineSpec())
		last = drive(t, s, r.ID, nil)
	}
	// Compaction runs in the background; Close waits for any in flight, so
	// the on-disk layout is only inspected after it.
	s.Close()
	segs, snaps := listWALFiles(t, dir)
	if len(snaps) == 0 {
		t.Fatalf("no snapshot written after %d records (files: %v)", 45, segs)
	}
	if len(snaps) != 1 {
		t.Errorf("old snapshots not cleaned up: %v", snaps)
	}
	// Only the post-compaction segments should remain.
	for _, seg := range segs {
		if seg < strings.Replace(snaps[len(snaps)-1], "snapshot-", "wal-", 1) {
			t.Errorf("segment %s predates snapshot %s but was not removed", seg, snaps[len(snaps)-1])
		}
	}

	s2, recovered := mustOpen(t, dir, wal.Options{CompactThreshold: 10})
	defer s2.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered %d runs from compacted log, want 0", len(recovered))
	}
	if got := s2.Len(); got != 15 {
		t.Errorf("Len after compacted replay = %d, want 15", got)
	}
	got, err := s2.Get(last.ID)
	if err != nil || got.State != run.StateSucceeded {
		t.Errorf("Get(%s) after compacted replay = %+v, %v", last.ID, got, err)
	}
}

// TestTornTail simulates a crash mid-append: trailing garbage on the
// active segment is truncated away and every complete record survives.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Shards: 1})
	a := mustCreate(t, s, pipelineSpec())
	drive(t, s, a.ID, nil)
	b := mustCreate(t, s, pipelineSpec())
	s.Close()

	segs, _ := listWALFiles(t, dir)
	active := filepath.Join(dir, segs[len(segs)-1])
	// A torn frame: a header claiming 1000 payload bytes, then only 5.
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x03, 0xe8, 0xde, 0xad, 0xbe, 0xef, 'x', 'y', 'z', '!', '?'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore, _ := os.Stat(active)

	s2, recovered := mustOpen(t, dir, wal.Options{})
	defer s2.Close()
	if got, err := s2.Get(a.ID); err != nil || got.State != run.StateSucceeded {
		t.Errorf("run before torn tail lost: %+v, %v", got, err)
	}
	if len(recovered) != 1 || recovered[0].ID != b.ID {
		t.Errorf("recovered = %+v, want just %s", recovered, b.ID)
	}
	sizeAfter, _ := os.Stat(active)
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Errorf("torn tail not truncated: %d >= %d bytes", sizeAfter.Size(), sizeBefore.Size())
	}
}

// TestCorruptSealedSegmentRejected pins the other half of the policy: a
// bit flip in a sealed (non-final) file is real corruption and Open must
// refuse rather than load a partial history.
func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Shards: 1})
	r := mustCreate(t, s, pipelineSpec())
	drive(t, s, r.ID, nil)
	s.Close()
	// A second open seals the first segment behind a new active one.
	s2, _ := mustOpen(t, dir, wal.Options{})
	mustCreate(t, s2, pipelineSpec())
	s2.Close()

	segs, _ := listWALFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, have %v", segs)
	}
	sealed := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 20 {
		t.Fatalf("sealed segment implausibly small: %d bytes", len(data))
	}
	data[len(data)/2] ^= 0xff // flip bits mid-payload; CRC must catch it
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := wal.Open(dir, wal.Options{}); err == nil {
		t.Fatal("Open loaded a corrupt sealed segment")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corruption error %q does not say corrupt", err)
	}
}

// TestCancelRequestedSurvivesCrash pins that a cancel acknowledged on a
// running run is durable: if the process dies before the dispatcher
// records the terminal outcome, recovery finishes the cancellation rather
// than re-admitting (and silently re-executing) the run.
func TestCancelRequestedSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})
	r := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	if c, err := s.Cancel(r.ID); err != nil || c.State != run.StateRunning {
		t.Fatalf("Cancel(running) = %+v, %v", c, err)
	}
	s.Close() // crash before the dispatcher's Finish

	s2, recovered := mustOpen(t, dir, wal.Options{})
	if len(recovered) != 0 {
		t.Fatalf("acknowledged-cancelled run was re-admitted: %+v", recovered)
	}
	got, err := s2.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != run.StateCancelled {
		t.Fatalf("state after crash = %s, want cancelled", got.State)
	}
	if got.FinishedAt == nil {
		t.Error("crash-cancelled run has no FinishedAt (would never evict)")
	}
	if got.Error == "" {
		t.Error("crash-cancelled run carries no explanation")
	}
	s2.Close()

	// The repair itself was logged: a third boot replays to the same state.
	s3, recovered3 := mustOpen(t, dir, wal.Options{})
	defer s3.Close()
	if len(recovered3) != 0 {
		t.Fatalf("repaired run re-admitted on second restart: %+v", recovered3)
	}
	if got, _ := s3.Get(r.ID); got.State != run.StateCancelled {
		t.Errorf("repair not durable: state = %s on second restart", got.State)
	}
	// And it evicts like any terminal run.
	if n := s3.EvictTerminal(0); n != 0 {
		t.Errorf("EvictTerminal(0) = %d, want 0", n)
	}
	filler := mustCreate(t, s3, pipelineSpec())
	drive(t, s3, filler.ID, nil)
	if n := s3.EvictTerminal(1); n != 1 {
		t.Errorf("EvictTerminal(1) = %d, want 1 (the crash-cancelled run)", n)
	}
}

// TestFsyncRoundTrip smoke-checks the fsync path end to end (correctness
// is identical; only the durability window differs).
func TestFsyncRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Fsync: true})
	r := mustCreate(t, s, pipelineSpec())
	drive(t, s, r.ID, nil)
	s.Close()
	s2, _ := mustOpen(t, dir, wal.Options{Fsync: true})
	defer s2.Close()
	if got, err := s2.Get(r.ID); err != nil || got.State != run.StateSucceeded {
		t.Errorf("fsync'd run lost: %+v, %v", got, err)
	}
}

// TestRecoveryPreservesTenant: tenant attribution rides the WAL record
// through a crash — re-admitted runs come back carrying the same tenant
// (the dispatcher then routes each into its owning tenant's queue).
func TestRecoveryPreservesTenant(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})

	specFor := func(name string) run.Spec {
		sp := pipelineSpec()
		sp.Tenant = name
		sp.Priority = 1
		return sp
	}
	queued := mustCreate(t, s, specFor("alpha"))
	running := mustCreate(t, s, specFor("beta"))
	if _, err := s.Begin(running.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	terminal := mustCreate(t, s, specFor("alpha"))
	drive(t, s, terminal.ID, nil)
	s.Close()

	s2, recovered := mustOpen(t, dir, wal.Options{})
	defer s2.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d runs, want 2", len(recovered))
	}
	want := map[string]string{queued.ID: "alpha", running.ID: "beta"}
	for _, r := range recovered {
		if r.Spec.Tenant != want[r.ID] {
			t.Errorf("recovered run %s tenant = %q, want %q", r.ID, r.Spec.Tenant, want[r.ID])
		}
		if r.Spec.Priority != 1 {
			t.Errorf("recovered run %s priority = %d, want 1", r.ID, r.Spec.Priority)
		}
	}
	got, err := s2.Get(terminal.ID)
	if err != nil || got.Spec.Tenant != "alpha" {
		t.Errorf("terminal run tenant after replay = %q, %v; want alpha", got.Spec.Tenant, err)
	}
}

// TestRecoveryStampsLegacyTenant: records written before tenancy existed
// (no tenant field) replay as the catch-all default tenant — terminal
// history and re-admitted runs alike — so ?tenant= filters and queue
// routing always have a real attribution.
func TestRecoveryStampsLegacyTenant(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{})

	// pipelineSpec carries no tenant: byte-for-byte what a pre-tenancy
	// dagd logged.
	terminal := mustCreate(t, s, pipelineSpec())
	drive(t, s, terminal.ID, nil)
	interrupted := mustCreate(t, s, pipelineSpec())
	s.Close()

	s2, recovered := mustOpen(t, dir, wal.Options{})
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].ID != interrupted.ID {
		t.Fatalf("recovered = %+v, want just the interrupted run", recovered)
	}
	if got := recovered[0].Spec.Tenant; got != tenant.Default {
		t.Errorf("legacy interrupted run replayed with tenant %q, want %q", got, tenant.Default)
	}
	got, err := s2.Get(terminal.ID)
	if err != nil || got.Spec.Tenant != tenant.Default {
		t.Errorf("legacy terminal run replayed with tenant %q, %v; want %q", got.Spec.Tenant, err, tenant.Default)
	}
}
