package wal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
)

// TestShardLayout pins the on-disk contract of a sharded data dir: a
// MANIFEST at the root, shard-NN directories holding every log file, and a
// restart that adopts the pinned count when asked for none.
func TestShardLayout(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Shards: 4})
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	for i := 0; i < 32; i++ {
		r := mustCreate(t, s, pipelineSpec())
		drive(t, s, r.ID, nil)
	}
	s.Close()

	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatalf("no MANIFEST at the data dir root: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%02d", i))); err != nil {
			t.Errorf("shard dir %02d missing: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && e.Name() != "MANIFEST" {
			t.Errorf("unexpected root-level file %s (log files belong inside shard dirs)", e.Name())
		}
	}

	s2, recovered := mustOpen(t, dir, wal.Options{}) // 0 = adopt the manifest
	defer s2.Close()
	if got := s2.Shards(); got != 4 {
		t.Errorf("Shards() after adopting manifest = %d, want 4", got)
	}
	if len(recovered) != 0 {
		t.Errorf("recovered %d runs, want 0 (all terminal)", len(recovered))
	}
	if got := s2.CountByState()[run.StateSucceeded]; got != 32 {
		t.Errorf("succeeded after sharded replay = %d, want 32", got)
	}
}

// TestShardCountMismatchFailsClosed pins that reopening a data dir with a
// different -wal-shards refuses to load: run IDs are routed by hash mod the
// shard count, so a silent re-open would split each run's history.
func TestShardCountMismatchFailsClosed(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Shards: 2})
	r := mustCreate(t, s, pipelineSpec())
	drive(t, s, r.ID, nil)
	s.Close()

	_, _, err := wal.Open(dir, wal.Options{Shards: 3})
	if !errors.Is(err, wal.ErrShardCountMismatch) {
		t.Fatalf("Open with mismatched count = %v, want ErrShardCountMismatch", err)
	}

	// Same count, or none at all, still loads — and the data is intact.
	for _, shards := range []int{0, 2} {
		s2, _ := mustOpen(t, dir, wal.Options{Shards: shards})
		if got := s2.Shards(); got != 2 {
			t.Errorf("Shards()=%d with Shards:%d requested, want 2", got, shards)
		}
		if got, err := s2.Get(r.ID); err != nil || got.State != run.StateSucceeded {
			t.Errorf("run lost under Shards:%d: %+v, %v", shards, got, err)
		}
		s2.Close()
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

// TestNoManifestFailsClosed pins what Open does with run history it has no
// manifest for: it refuses, and leaves every file as it found it. The
// pre-shard single-stream layout (log files at the root) used to be
// migrated in place; shard directories whose manifest was lost used to be
// taken for migration debris and wiped on the way to a fresh store.
func TestNoManifestFailsClosed(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		damage  func(t *testing.T, dir string)
		wantErr string
	}{
		{
			// A one-shard chain moved to the root is byte for byte what the
			// single-stream store wrote: the file format never changed.
			name: "legacy root chain", shards: 1,
			damage: func(t *testing.T, dir string) {
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
		{
			name: "shards without manifest", shards: 4,
			damage:  func(*testing.T, string) {},
			wantErr: "shard directories without MANIFEST",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, wal.Options{Shards: tc.shards})
			for i := 0; i < 8; i++ {
				r := mustCreate(t, s, pipelineSpec())
				drive(t, s, r.ID, nil)
			}
			s.Close()
			if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			before := treeOf(t, dir)
			if len(before) == 0 {
				t.Fatal("no log files on disk to protect")
			}

			for _, shards := range []int{0, tc.shards} {
				s2, _, err := wal.Open(dir, wal.Options{Shards: shards})
				if err == nil {
					s2.Close()
					t.Fatalf("Open(Shards:%d) succeeded on a data dir with history and no manifest", shards)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("Open(Shards:%d) = %v, want an error naming %q", shards, err, tc.wantErr)
				}
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("refused Open changed the data dir:\nbefore %v\nafter  %v", keys(before), keys(after))
			}
		})
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTornTailIsolatedToShard damages the active-at-crash tail of every
// shard and checks the blast radius: each shard truncates its own garbage
// and every complete record — in every shard — survives.
func TestTornTailIsolatedToShard(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Shards: 4})
	var ids []string
	for i := 0; i < 24; i++ {
		r := mustCreate(t, s, pipelineSpec())
		drive(t, s, r.ID, nil)
		ids = append(ids, r.ID)
	}
	s.Close()

	torn := 0
	for i := 0; i < 4; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		segs, _ := listWALFiles(t, sdir)
		if len(segs) == 0 {
			continue
		}
		active := filepath.Join(sdir, segs[len(segs)-1])
		f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A torn frame: a header claiming 1000 payload bytes, then only 5.
		if _, err := f.Write([]byte{0x00, 0x00, 0x03, 0xe8, 0xde, 0xad, 0xbe, 0xef, 'x', 'y', 'z', '!', '?'}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		torn++
	}
	if torn < 2 {
		t.Fatalf("only %d shards held records; need at least 2 to prove isolation", torn)
	}

	s2, recovered := mustOpen(t, dir, wal.Options{})
	defer s2.Close()
	if len(recovered) != 0 {
		t.Errorf("recovered %d runs, want 0", len(recovered))
	}
	for _, id := range ids {
		if got, err := s2.Get(id); err != nil || got.State != run.StateSucceeded {
			t.Errorf("run %s lost to a torn tail in another shard: %+v, %v", id, got, err)
		}
	}
}

// TestGroupCommitConcurrentDurability hammers an fsync-on store from many
// goroutines and then replays it: every acknowledged transition must be on
// disk. This is the durability half of the group-commit contract (the
// batching half is the BenchmarkWALAppend numbers).
func TestGroupCommitConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, wal.Options{Fsync: true, Shards: 4})
	const workers, each = 16, 4
	idCh := make(chan string, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r, err := s.Create(pipelineSpec())
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
					t.Errorf("Begin(%s): %v", r.ID, err)
					return
				}
				if _, err := s.Finish(r.ID, &run.Result{Nodes: 12, Match: true}, nil); err != nil {
					t.Errorf("Finish(%s): %v", r.ID, err)
					return
				}
				idCh <- r.ID
			}
		}()
	}
	wg.Wait()
	close(idCh)
	s.Close()

	s2, _ := mustOpen(t, dir, wal.Options{Fsync: true})
	defer s2.Close()
	n := 0
	for id := range idCh {
		n++
		if got, err := s2.Get(id); err != nil || got.State != run.StateSucceeded {
			t.Errorf("acknowledged run %s not durable: %+v, %v", id, got, err)
		}
	}
	if n != workers*each {
		t.Errorf("drove %d runs, want %d", n, workers*each)
	}
}
