package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// tinySpec is a spec as the dispatcher stores one: tenant already resolved
// (replay stamps the default tenant on records that predate tenancy).
func tinySpec() run.Spec {
	return run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}, Tenant: tenant.Default}
}

// copyTree copies the data dir src into dst, so a crash point can be
// replayed without disturbing the recorded history.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// snapshotJSON is a run as a reader would see it, for byte-for-byte
// comparison (encoding drops the monotonic clock reading live stamps carry).
func snapshotJSON(t *testing.T, r run.Run) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRetentionAcrossCrashPoints is the retention rule as a crash property.
// A single-shard store is driven past keep with EvictTerminal(keep) after
// every completion — which logs nothing — across two compaction swaps, and
// then every record-boundary truncation of the active segment (the shape a
// power loss leaves: a durable prefix) is reopened and trimmed the way
// dispatch.New trims it.
func TestRetentionAcrossCrashPoints(t *testing.T) {
	const keep = 3
	opts := Options{Shards: 1, CompactThreshold: 16}
	dir := t.TempDir()
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	// Compaction runs in the background; waiting it out after every step
	// pins each swap to the record that triggered it, so the layout (and
	// the set of crash points) is the same on every run of the test.
	settle := func() { sh.compactWG.Wait() }
	create := func() string {
		t.Helper()
		r, err := s.Create(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		settle()
		return r.ID
	}
	begin := func(id string) {
		t.Helper()
		if _, err := s.Begin(id, time.Now(), "w1", func() {}); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	finish := func(id string, runErr error) {
		t.Helper()
		if _, err := s.Finish(id, &run.Result{Nodes: 12, Match: runErr == nil}, runErr); err != nil {
			t.Fatal(err)
		}
		settle()
		s.EvictTerminal(keep)
	}
	for i := 0; i < 10; i++ {
		id := create()
		begin(id)
		finish(id, nil)
	}
	if _, err := s.Cancel(create()); err != nil { // cancelled while queued
		t.Fatal(err)
	}
	settle()
	s.EvictTerminal(keep)
	// 32 records so far: the second swap has just happened, and everything
	// from here on lands in the active segment.
	id := create()
	begin(id)
	finish(id, errors.New("boom"))
	for i := 0; i < 2; i++ {
		id := create()
		begin(id)
		finish(id, nil)
	}
	running := create()
	begin(running)
	queued := create()
	live := s.List()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, segs, err := scanDir(sh.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no compaction swap happened mid-history")
	}
	active := segmentName(segs[len(segs)-1])
	data, err := os.ReadFile(filepath.Join(sh.dir, active))
	if err != nil {
		t.Fatal(err)
	}
	// cuts[i] is the file length that keeps the first i records; recs[i] is
	// the record a cut at i drops first.
	cuts := []int{0}
	var recs []record
	for off := 0; off < len(data); {
		n, rec, err := decodeFrame(data[off:])
		if err != nil {
			t.Fatalf("active segment does not parse at %d: %v", off, err)
		}
		off += n
		cuts = append(cuts, off)
		recs = append(recs, rec)
	}
	ops := map[string]int{}
	for _, rec := range recs {
		ops[rec.Op]++
	}
	if ops[opBegin] < 2 || ops[opFinish] < 2 || ops[opCreate] < 2 || ops[opDel] != 0 {
		t.Fatalf("active segment holds %v; want several creates, begins and finishes and no del", ops)
	}

	// after[i] is what a reader sees once cut i has been reopened and
	// trimmed, by run ID.
	after := make([]map[string]run.Run, len(cuts))
	wasTerminal := map[string]bool{}
	for i, cut := range cuts {
		crashed := t.TempDir()
		copyTree(t, dir, crashed)
		if err := os.Truncate(filepath.Join(crashed, shardDirName(0), active), int64(cut)); err != nil {
			t.Fatal(err)
		}
		s2, recovered, err := Open(crashed, opts)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", i, err)
		}
		saw := s2.List()
		evicted := s2.EvictTerminal(keep)
		list := s2.List()
		counts := s2.CountByState()
		s2.Close()

		// What replay saw, split the way the rule splits it.
		var history []run.Run
		interrupted := map[string]bool{}
		for _, r := range saw {
			if r.State.Terminal() {
				history = append(history, r)
			} else {
				interrupted[r.ID] = true
			}
		}
		sort.Slice(history, func(a, b int) bool { return run.CompareFinished(history[a], history[b]) < 0 })
		want := history
		if len(want) > keep {
			want = want[len(want)-keep:]
		}
		if evicted != len(history)-len(want) {
			t.Errorf("cut %d: EvictTerminal(%d) = %d over %d terminal runs", i, keep, evicted, len(history))
		}
		wantKept := map[string]bool{}
		for _, r := range want {
			wantKept[r.ID] = true
		}

		// Every run is there once, in exactly one state: retained history,
		// or queued for re-admission.
		after[i] = map[string]run.Run{}
		terminal := 0
		for _, r := range list {
			if _, dup := after[i][r.ID]; dup {
				t.Errorf("cut %d: run %s listed twice", i, r.ID)
			}
			after[i][r.ID] = r
			switch {
			case r.State.Terminal():
				terminal++
				if !wantKept[r.ID] {
					t.Errorf("cut %d: run %s (finished %v) retained; not among the %d newest-finished replay saw", i, r.ID, r.FinishedAt, keep)
				}
				if r.FinishedAt == nil {
					t.Errorf("cut %d: terminal run %s has no FinishedAt", i, r.ID)
				}
			case r.State == run.StateQueued:
				if !interrupted[r.ID] || r.StartedAt != nil || r.DispatchedAt != nil || r.Worker != "" || r.Restarts != 1 {
					t.Errorf("cut %d: re-admitted run %+v is not a clean queued snapshot with Restarts 1", i, r)
				}
			default:
				t.Errorf("cut %d: run %s is %s after recovery", i, r.ID, r.State)
			}
			if wasTerminal[r.ID] && !r.State.Terminal() {
				t.Errorf("cut %d: run %s was terminal at a shorter prefix and is %s now", i, r.ID, r.State)
			}
		}
		if terminal != len(want) || terminal > keep {
			t.Errorf("cut %d: %d terminal runs retained, want %d (keep %d)", i, terminal, len(want), keep)
		}
		if len(list) != len(want)+len(interrupted) || counts[run.StateQueued] != len(interrupted) || counts[run.StateRunning] != 0 {
			t.Errorf("cut %d: %d runs listed (%v), want %d retained + %d re-admitted", i, len(list), counts, len(want), len(interrupted))
		}
		if len(recovered) != len(interrupted) {
			t.Errorf("cut %d: Open returned %d runs to re-admit, replay saw %d interrupted", i, len(recovered), len(interrupted))
		}
		for _, r := range history {
			wasTerminal[r.ID] = true
		}
	}

	// A cut that drops a begin record and the cut just past it give the
	// same reader-visible run: the un-awaited record protects nothing.
	for k, rec := range recs {
		if rec.Op != opBegin {
			continue
		}
		id := rec.Run.ID
		without, with := after[k][id], after[k+1][id]
		if without.State != run.StateQueued || without.Restarts != 1 {
			t.Errorf("begin of %s lost: recovered as %s with Restarts %d, want queued with 1", id, without.State, without.Restarts)
		}
		if a, b := snapshotJSON(t, without), snapshotJSON(t, with); a != b {
			t.Errorf("begin of %s lost vs kept differ:\n lost %s\n kept %s", id, a, b)
		}
	}

	// Nothing lost at all: the reopened store is the live one, with the two
	// unfinished runs re-admitted.
	full := after[len(cuts)-1]
	if len(full) != len(live) {
		t.Fatalf("full replay lists %d runs, the live store had %d", len(full), len(live))
	}
	for _, was := range live {
		got, ok := full[was.ID]
		switch {
		case !ok:
			t.Errorf("run %s (%s) missing after a full replay", was.ID, was.State)
		case was.State.Terminal():
			if a, b := snapshotJSON(t, was), snapshotJSON(t, got); a != b {
				t.Errorf("retained run changed across restart:\n was %s\n got %s", a, b)
			}
		case was.ID != running && was.ID != queued:
			t.Errorf("unexpected unfinished run %s in the live store", was.ID)
		}
	}
}

// lifecycle drives one run Create → Begin → Finish the way the dispatcher
// does, calling afterBegin in between.
func lifecycle(tb testing.TB, s *Store, afterBegin func()) {
	tb.Helper()
	r, err := s.Create(tinySpec())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
		tb.Fatal(err)
	}
	afterBegin()
	if _, err := s.Finish(r.ID, &run.Result{Nodes: 12, Match: true}, nil); err != nil {
		tb.Fatal(err)
	}
}

// walCounters reads the store's own series off a registry page.
func walCounters(t *testing.T, reg *metrics.Registry) (appends, fsyncs, batches, batched float64) {
	t.Helper()
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(&page)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams["dagd_wal_commit_batch_size"].Samples {
		if s.Name == "dagd_wal_commit_batch_size_sum" {
			batched += s.Value
		}
	}
	return fams["dagd_wal_appends_total"].Sum(), fams["dagd_wal_fsyncs_total"].Sum(),
		fams["dagd_wal_commit_batch_size"].Sum(), batched
}

// TestAwaitedAppends pins which transitions wait for the disk: one run's
// life at the retention cap is three appends and two fsyncs — create, and
// a finish whose batch carries the begin — and eviction costs neither.
func TestAwaitedAppends(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _, err := Open(t.TempDir(), Options{Fsync: true, Shards: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lifecycle(t, s, func() {}) // bring the store to the cap of one
	a0, f0, b0, n0 := walCounters(t, reg)

	lifecycle(t, s, func() {
		a, f, _, _ := walCounters(t, reg)
		if a != a0+2 || f != f0+1 {
			t.Errorf("after Create+Begin: appends +%v fsyncs +%v, want +2 and +1 (a lone Begin waits for nothing)", a-a0, f-f0)
		}
	})
	if n := s.EvictTerminal(1); n != 1 {
		t.Fatalf("EvictTerminal(1) = %d, want 1", n)
	}
	a, f, b, n := walCounters(t, reg)
	if a != a0+3 {
		t.Errorf("one run at the cap cost %v appends, want 3", a-a0)
	}
	if f != f0+2 {
		t.Errorf("one run at the cap cost %v fsyncs, want 2", f-f0)
	}
	if b != b0+2 || n != n0+3 {
		t.Errorf("%v batches covered %v records, want 2 covering 3 (the finish's carries the begin)", b-b0, n-n0)
	}
}
