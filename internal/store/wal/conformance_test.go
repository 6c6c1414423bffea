package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/storetest"
)

// TestStoreConformance runs the shared store conformance suite against the
// WAL backend — default config, group-commit fsync, aggressive compaction
// (with and without fsync), segment rotation every few records (with and
// without fsync), and a store folded from an empty data dir an older
// version laid out in four shard directories — so list order, eviction,
// Await, and cursor semantics are bit-identical to the in-memory store's.
func TestStoreConformance(t *testing.T) {
	openIn := func(prepare func(t *testing.T, dir string), opts wal.Options) storetest.Factory {
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
	open := func(opts wal.Options) storetest.Factory {
		return openIn(func(*testing.T, string) {}, opts)
	}
	t.Run("Default", func(t *testing.T) { storetest.Run(t, open(wal.Options{})) })
	t.Run("Fsync", func(t *testing.T) { storetest.Run(t, open(wal.Options{Fsync: true})) })
	// A tiny compaction threshold forces snapshot+truncate churn under
	// every conformance scenario; with fsync, every swap shares the log
	// with the group committer.
	t.Run("AggressiveCompaction", func(t *testing.T) {
		storetest.Run(t, open(wal.Options{CompactThreshold: 4}))
	})
	t.Run("FsyncAggressiveCompaction", func(t *testing.T) {
		storetest.Run(t, open(wal.Options{Fsync: true, CompactThreshold: 4}))
	})
	// A segment cap below a handful of records rotates the active segment
	// all through every scenario.
	t.Run("SmallSegments", func(t *testing.T) {
		storetest.Run(t, open(wal.Options{SegmentMaxBytes: 1024}))
	})
	t.Run("SmallSegmentsFsync", func(t *testing.T) {
		storetest.Run(t, open(wal.Options{Fsync: true, SegmentMaxBytes: 1024}))
	})
	// An older version's four-shard dir with no history yet: Open folds it
	// to one log, which then behaves as a fresh one.
	t.Run("FoldedLegacyDir", func(t *testing.T) {
		storetest.Run(t, openIn(func(t *testing.T, dir string) {
			manifest := []byte(`{"version":1,"shards":4}` + "\n")
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), 0o755); err != nil {
					t.Fatal(err)
				}
			}
		}, wal.Options{}))
	})
}
