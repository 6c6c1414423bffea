package wal

import (
	"errors"
	"fmt"
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

// refuseLayout opens dir, expects a refusal naming wantErr, and pins that
// the refused Open left every file as it found it.
func refuseLayout(t *testing.T, dir, wantErr string) {
	t.Helper()
	before := treeOf(t, dir)
	if len(before) == 0 {
		t.Fatal("no files on disk to protect")
	}

	s, _, err := Open(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("Open succeeded on a data dir in a layout it does not read")
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Errorf("Open = %v, want an error naming %q", err, wantErr)
	}
	if after := treeOf(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("refused Open changed the data dir:\nbefore %v\nafter  %v", keys(before), keys(after))
	}
}

// oneLog is a data dir this version wrote, holding eight finished runs.
func oneLog(t *testing.T, dir string) {
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

// fourShards is what an older version wrote with four shards, history in
// two of them.
func fourShards(t *testing.T, dir string) {
	t.Helper()
	oneLog(t, dir)
	copyTree(t, filepath.Join(dir, "shard-00"), filepath.Join(dir, "shard-03"))
	writeManifestBytes(t, dir, `{"version":1,"shards":4}`)
}

func writeManifestBytes(t *testing.T, dir, manifest string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNoManifestFailsClosed pins what Open does with run history it has no
// manifest for: it refuses, and leaves every file as it found it. The
// pre-shard single-stream layout (log files at the root) used to be
// migrated in place; shard directories whose manifest was lost used to be
// taken for migration debris and wiped on the way to a fresh store.
func TestNoManifestFailsClosed(t *testing.T) {
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
		{name: "four shards", build: fourShards, wantErr: "shard directories without MANIFEST"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
				t.Fatal(err)
			}
			refuseLayout(t, dir, tc.wantErr)
		})
	}
}

// TestManifestFailsClosed pins what Open does with a manifest that pins a
// layout this version does not read: it refuses, and leaves every file as
// it found it. A manifest pinning several shards is the retired sharded
// layout, which older versions fold into one log — with history or, as a
// first boot of one of them left it, without. A corrupt manifest, one of
// another version or one pinning no shard at all says nothing about which
// directories hold the history.
func TestManifestFailsClosed(t *testing.T) {
	withManifest := func(manifest string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			oneLog(t, dir)
			writeManifestBytes(t, dir, manifest)
		}
	}
	cases := []struct {
		name    string
		build   func(t *testing.T, dir string)
		wantErr string
	}{
		{name: "four shards", build: fourShards, wantErr: "retired sharded layout"},
		{
			name: "four empty shards",
			build: func(t *testing.T, dir string) {
				writeManifestBytes(t, dir, `{"version":1,"shards":4}`)
				for i := 0; i < 4; i++ {
					if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), 0o755); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantErr: "retired sharded layout",
		},
		{name: "two shards", build: withManifest(`{"version":1,"shards":2}`), wantErr: "retired sharded layout"},
		{name: "zero shards", build: withManifest(`{"version":1,"shards":0}`), wantErr: "implausible shard count 0"},
		{name: "version 2", build: withManifest(`{"version":2,"shards":1}`), wantErr: "manifest version 2 not supported"},
		{name: "corrupt", build: withManifest(`{"version":1,"sha`), wantErr: "manifest is corrupt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			refuseLayout(t, dir, tc.wantErr)
		})
	}
}

// The runs of parentFixture, by what the records an older version wrote
// for them say.
const (
	parentSucceeded    = "r000001-0000000a" // create/begin/finish
	parentRunning      = "r000002-0000000b" // create/begin
	parentSnapshot     = "r000003-0000000c" // snapshot, terminal
	parentSnapCancel   = "r000004-0000000d" // snapshot, running with a cancel acknowledged
	parentQueued       = "r000005-0000000e" // create
	parentFailed       = "r000006-0000000f" // create/begin/finish, failed
	parentSegCancel    = "r000007-00000010" // create/begin/cancelreq
	parentQueued2      = "r000008-00000011" // create, in the active segment
	parentCancelQueued = "r000009-00000012" // create/cancel, in the active segment
	parentDeleted      = "r000010-00000013" // create/del, in the active segment
)

// parentFixture lays out by hand a one-shard data dir as the version before
// this one wrote it: begin records, cancelreq records whose snapshot does
// not carry the flag (in a segment, and as the compaction snapshot's
// record of a running run), a del record, a leftover segment below the
// snapshot, two sealed segments and an active one. It returns every
// undeleted run's last snapshot.
func parentFixture(t *testing.T, dir string) map[string]*run.Run {
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
	cancelReq := func(id string) func() record { return step(run.OpCancelReq, id, func(*run.Run) {}) }

	// Snapshot 2 summarises segment 1, which a crash between the
	// snapshot's install and the cleanup left behind.
	plantSegment(t, dir, 1, frames(
		create(parentSnapshot, 1), begin(parentSnapshot, 2), finish(parentSnapshot, 3, ""),
		create(parentSnapCancel, 4), begin(parentSnapCancel, 5), cancelReq(parentSnapCancel)))
	snapshot := frames(
		func() record { return record{Op: run.OpPut, Run: runs[parentSnapshot]} },
		func() record { return record{Op: run.OpCancelReq, Run: runs[parentSnapCancel]} })
	if err := os.WriteFile(filepath.Join(dir, logDirName, snapshotName(2)), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	plantSegment(t, dir, 3, frames(
		create(parentSucceeded, 6), create(parentRunning, 7), begin(parentSucceeded, 8),
		finish(parentSucceeded, 9, ""), begin(parentRunning, 10), create(parentQueued, 11)))
	plantSegment(t, dir, 4, frames(
		create(parentFailed, 12), begin(parentFailed, 13), finish(parentFailed, 14, "boom"),
		create(parentSegCancel, 15), begin(parentSegCancel, 16), cancelReq(parentSegCancel)))
	plantSegment(t, dir, 5, frames(
		create(parentQueued2, 17), create(parentCancelQueued, 18),
		step(run.OpCancel, parentCancelQueued, func(r *run.Run) { r.State, r.FinishedAt = run.StateCancelled, at(19) }),
		create(parentDeleted, 20),
		func() record { delete(runs, parentDeleted); return record{Op: run.OpDel, ID: parentDeleted} }))
	return runs
}

// TestParentDataDirBoots opens parentFixture's data dir and pins that every
// run recovers as the version that wrote it recovers it: terminal runs
// byte-identical, runs a begin record left running and runs only created
// queued again with Restarts 1, and runs whose cancellation was
// acknowledged — in a segment, or in the snapshot — cancelled, without
// re-executing. A deleted run stays gone. Nothing about the layout changes.
func TestParentDataDirBoots(t *testing.T) {
	dir := t.TempDir()
	wrote := parentFixture(t, dir)
	manifest := treeOf(t, dir)["MANIFEST"]

	s, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != len(wrote) {
		t.Errorf("Open holds %d runs, the fixture wrote %d", got, len(wrote))
	}
	if _, err := s.Get(parentDeleted); !errors.Is(err, run.ErrNotFound) {
		t.Errorf("deleted run %s resurrected by replay: %v", parentDeleted, err)
	}
	for _, id := range []string{parentSucceeded, parentSnapshot, parentFailed, parentCancelQueued} {
		got, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := snapshotJSON(t, *wrote[id]), snapshotJSON(t, got); a != b {
			t.Errorf("terminal run %s changed:\n wrote %s\n got   %s", id, a, b)
		}
	}
	for _, id := range []string{parentRunning, parentQueued, parentQueued2} {
		want := *wrote[id]
		want.State, want.Restarts, want.StartedAt, want.Worker = run.StateQueued, 1, nil, ""
		got, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := snapshotJSON(t, want), snapshotJSON(t, got); a != b {
			t.Errorf("interrupted run %s not requeued:\n want %s\n got  %s", id, a, b)
		}
	}
	for _, id := range []string{parentSnapCancel, parentSegCancel} {
		got, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != run.StateCancelled || !got.CancelRequested || got.FinishedAt == nil || got.Error == "" || got.Restarts != 0 {
			t.Errorf("cancel-acknowledged run %s recovered as %+v, want cancelled", id, got)
		}
	}
	var ids []string
	for _, r := range recovered {
		ids = append(ids, r.ID)
	}
	if want := []string{parentRunning, parentQueued, parentQueued2}; !reflect.DeepEqual(ids, want) {
		t.Errorf("re-admitted %v, want %v", ids, want)
	}
	if got := treeOf(t, dir)["MANIFEST"]; got != manifest {
		t.Errorf("MANIFEST rewritten: %q, was %q", got, manifest)
	}
}
