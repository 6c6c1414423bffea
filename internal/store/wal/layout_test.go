package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// TestShardLayout pins the on-disk contract of a data dir: a MANIFEST at
// the root naming one shard and shard-00 holding every log file — the
// layout older, sharded versions read as one shard — and a restart that
// replays it.
func TestShardLayout(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		lifecycle(t, s, func() {})
	}
	s.Close()

	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatalf("no MANIFEST at the data dir root: %v", err)
	}
	if got := strings.TrimSpace(string(manifest)); got != `{"version":1,"shards":1}` {
		t.Errorf("MANIFEST = %s, want one shard", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "MANIFEST" && e.Name() != "shard-00" {
			t.Errorf("unexpected %s at the data dir root (log files belong in shard-00)", e.Name())
		}
	}
	if snaps, segs, err := scanDir(filepath.Join(dir, "shard-00")); err != nil || len(snaps)+len(segs) == 0 {
		t.Errorf("shard-00 holds no log files (%v)", err)
	}

	s2, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recovered) != 0 {
		t.Errorf("recovered %d runs, want 0 (all terminal)", len(recovered))
	}
	if got := s2.CountByState()[run.StateSucceeded]; got != 32 {
		t.Errorf("succeeded after replay = %d, want 32", got)
	}
}

// treeOf reads every file under dir, keyed by its path relative to dir.
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestNoManifestFailsClosed pins what Open does with run history it has no
// manifest for: it refuses, and leaves every file as it found it. The
// pre-shard single-stream layout (log files at the root) used to be
// migrated in place; shard directories whose manifest was lost used to be
// taken for migration debris and wiped on the way to a fresh store.
func TestNoManifestFailsClosed(t *testing.T) {
	oneLog := func(t *testing.T, dir string) {
		t.Helper()
		s, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			lifecycle(t, s, func() {})
		}
		s.Close()
	}
	cases := []struct {
		name    string
		build   func(t *testing.T, dir string)
		wantErr string
	}{
		{
			// The log moved to the root is byte for byte what the
			// single-stream store wrote: the file format never changed.
			name: "legacy root chain",
			build: func(t *testing.T, dir string) {
				oneLog(t, dir)
				sdir := filepath.Join(dir, "shard-00")
				entries, err := os.ReadDir(sdir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if err := os.Rename(filepath.Join(sdir, e.Name()), filepath.Join(dir, e.Name())); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.Remove(sdir); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "unsupported pre-shard layout",
		},
		{name: "one log", build: oneLog, wantErr: "shard directories without MANIFEST"},
		{name: "four shards", build: foldFixture, wantErr: "shard directories without MANIFEST"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
				t.Fatal(err)
			}
			before := treeOf(t, dir)
			if len(before) == 0 {
				t.Fatal("no log files on disk to protect")
			}

			s, _, err := Open(dir, Options{})
			if err == nil {
				s.Close()
				t.Fatal("Open succeeded on a data dir with history and no manifest")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Open = %v, want an error naming %q", err, tc.wantErr)
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("refused Open changed the data dir:\nbefore %v\nafter  %v", keys(before), keys(after))
			}
		})
	}
}

// The runs of foldFixture, by what the sharded replay made of them.
const (
	foldSucceeded = "r000001-0000000a" // shard-00, create/begin/finish
	foldRunning   = "r000002-0000000b" // shard-00, create/begin
	foldSnapshot  = "r000003-0000000c" // shard-01 snapshot, terminal
	foldCancelReq = "r000004-0000000d" // shard-01 snapshot, running with a cancel acknowledged
	foldQueued    = "r000005-0000000e" // shard-01 segment after the snapshot
	foldFailed    = "r000006-0000000f" // shard-03 sealed segment
	foldQueued2   = "r000007-00000010" // shard-03 active segment
	foldCancelled = "r000008-00000011" // shard-03 active segment, cancelled while queued
)

// foldFixture lays out by hand what an older version wrote with four
// shards: terminal, running, queued and cancel-requested runs spread over
// them — shard-01 compacted, with a leftover segment below its snapshot,
// shard-02 empty, shard-03 with a sealed and an active segment.
func foldFixture(t *testing.T, dir string) {
	t.Helper()
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	runs := map[string]*run.Run{}
	at := func(sec int) *time.Time {
		ts := base.Add(time.Duration(sec) * time.Second)
		return &ts
	}
	// frames applies each step to runs, in order, and frames the records.
	frames := func(steps ...func() record) []byte {
		var buf []byte
		for _, step := range steps {
			var err error
			if buf, err = encodeFrame(buf, step()); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}
	create := func(id string, sec int) func() record {
		return func() record {
			r := run.Run{ID: id, Spec: tinySpec(), State: run.StateQueued, CreatedAt: *at(sec)}
			runs[id] = &r
			snap := r
			return record{Op: run.OpCreate, Run: &snap}
		}
	}
	step := func(op run.Op, id string, apply func(r *run.Run)) func() record {
		return func() record {
			apply(runs[id])
			snap := *runs[id]
			return record{Op: op, Run: &snap}
		}
	}
	begin := func(id string, sec int) func() record {
		return step(run.OpBegin, id, func(r *run.Run) { r.State, r.StartedAt, r.Worker = run.StateRunning, at(sec), "w1" })
	}
	finish := func(id string, sec int, errMsg string) func() record {
		return step(run.OpFinish, id, func(r *run.Run) {
			r.State, r.FinishedAt = run.StateSucceeded, at(sec)
			r.Result = &run.Result{Nodes: 12, SinkPaths: 3, Match: true}
			if errMsg != "" {
				r.State, r.Error, r.Result = run.StateFailed, errMsg, nil
			}
		})
	}

	plantSegment(t, dir, 4, 0, 1, frames(
		create(foldSucceeded, 1), create(foldRunning, 2), begin(foldSucceeded, 3),
		finish(foldSucceeded, 4, ""), begin(foldRunning, 5)))
	// shard-01's snapshot 3 summarises its segment 2, which a crash
	// between the snapshot's install and the cleanup left behind.
	plantSegment(t, dir, 4, 1, 2, frames(
		create(foldSnapshot, 6), begin(foldSnapshot, 7), finish(foldSnapshot, 8, ""),
		create(foldCancelReq, 9), begin(foldCancelReq, 10), step(run.OpCancelReq, foldCancelReq, func(*run.Run) {})))
	buf, err := encodeSnapshot([]run.Run{*runs[foldSnapshot], *runs[foldCancelReq]}, map[string]bool{foldCancelReq: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-01", snapshotName(3)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	plantSegment(t, dir, 4, 1, 4, frames(create(foldQueued, 11)))
	if err := os.MkdirAll(filepath.Join(dir, "shard-02"), 0o755); err != nil {
		t.Fatal(err)
	}
	plantSegment(t, dir, 4, 3, 1, frames(create(foldFailed, 12), begin(foldFailed, 13), finish(foldFailed, 14, "boom")))
	plantSegment(t, dir, 4, 3, 2, frames(
		create(foldQueued2, 15), create(foldCancelled, 16),
		step(run.OpCancel, foldCancelled, func(r *run.Run) { r.State, r.FinishedAt = run.StateCancelled, at(17) })))
}

// foldedStore is what a reader sees of an opened store, for comparing two
// opens: every run as JSON, with the FinishedAt recovery stamps on the run
// whose acknowledged cancellation it completes cleared, plus the IDs Open
// handed back to re-admit.
func foldedStore(t *testing.T, s *run.Store, recovered []run.Run) []string {
	t.Helper()
	var out []string
	for _, r := range s.List() {
		if r.ID == foldCancelReq {
			r.FinishedAt = nil
		}
		out = append(out, snapshotJSON(t, r))
	}
	for _, r := range recovered {
		out = append(out, "recovered "+r.ID)
	}
	return out
}

// TestFoldShardedDataDir opens foldFixture's four-shard layout. A clean
// fold reads the history the sharded replay read, and leaves one log: the
// manifest names one shard and only shard-00 is left. The two states a
// crash mid-fold can leave — the snapshot written but the manifest not yet
// rewritten, and the manifest rewritten with the other shard dirs still
// there — reopen to the same store.
func TestFoldShardedDataDir(t *testing.T) {
	fixture := t.TempDir()
	foldFixture(t, fixture)

	clean := t.TempDir()
	copyTree(t, fixture, clean)
	s, recovered, err := Open(clean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		state    run.State
		restarts int
	}{
		foldSucceeded: {run.StateSucceeded, 0},
		foldRunning:   {run.StateQueued, 1},
		foldSnapshot:  {run.StateSucceeded, 0},
		foldCancelReq: {run.StateCancelled, 0},
		foldQueued:    {run.StateQueued, 1},
		foldFailed:    {run.StateFailed, 0},
		foldQueued2:   {run.StateQueued, 1},
		foldCancelled: {run.StateCancelled, 0},
	}
	list := s.List()
	if len(list) != len(want) {
		t.Fatalf("fold lists %d runs, want %d", len(list), len(want))
	}
	for i, r := range list {
		w := want[r.ID]
		if r.State != w.state || r.Restarts != w.restarts {
			t.Errorf("run %s after the fold: %s with Restarts %d, want %s with %d", r.ID, r.State, r.Restarts, w.state, w.restarts)
		}
		if i > 0 && run.CompareRuns(list[i-1], r) >= 0 {
			t.Errorf("List out of (CreatedAt, ID) order at %d", i)
		}
	}
	if got, _ := s.Get(foldSucceeded); got.Result == nil || got.Result.SinkPaths != 3 {
		t.Errorf("succeeded run lost its result in the fold: %+v", got.Result)
	}
	var ids []string
	for _, r := range recovered {
		ids = append(ids, r.ID)
	}
	if wantIDs := []string{foldRunning, foldQueued, foldQueued2}; !reflect.DeepEqual(ids, wantIDs) {
		t.Errorf("recovered %v, want %v", ids, wantIDs)
	}
	cleanStore := foldedStore(t, s, recovered)
	s.Close()

	oneLog := func(t *testing.T, dir string) {
		t.Helper()
		m, err := readManifest(dir)
		if err != nil || m.ShardCount != 1 {
			t.Errorf("manifest after the fold = %+v, %v; want one shard", m, err)
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.IsDir() && e.Name() != "shard-00" {
				t.Errorf("%s survived the fold", e.Name())
			}
		}
	}
	oneLog(t, clean)
	snaps, _, err := scanDir(filepath.Join(clean, "shard-00"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("folded shard-00 holds snapshots %v, %v; want the fold's one", snaps, err)
	}
	foldSnap := snapshotName(snaps[0])

	// Each crash state is the fixture plus what the fold had made durable.
	for _, tc := range []struct {
		name     string
		manifest bool
	}{
		{"snapshot written", false},
		{"manifest rewritten", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, fixture, dir)
			data, err := os.ReadFile(filepath.Join(clean, "shard-00", foldSnap))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "shard-00", foldSnap), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.manifest {
				if err := writeManifest(dir, 1); err != nil {
					t.Fatal(err)
				}
			}
			s, recovered, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := foldedStore(t, s, recovered); !reflect.DeepEqual(got, cleanStore) {
				t.Errorf("reopened after a crash mid-fold:\n got  %v\n want %v", got, cleanStore)
			}
			oneLog(t, dir)
		})
	}
}

// TestFoldRefusesCorruptShard pins the fold's failure mode: a corrupt sealed
// file in any shard fails Open before the fold writes anything, and the
// data dir is left byte for byte as it was.
func TestFoldRefusesCorruptShard(t *testing.T) {
	dir := t.TempDir()
	foldFixture(t, dir)
	sealed := filepath.Join(dir, "shard-03", segmentName(1))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeOf(t, dir)

	s, _, err := Open(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("Open folded a sharded data dir with a corrupt sealed segment")
	}
	if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "shard-03") {
		t.Errorf("refusal %q does not name the corrupt shard", err)
	}
	if after := treeOf(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("refused fold changed the data dir:\nbefore %v\nafter  %v", keys(before), keys(after))
	}
}
