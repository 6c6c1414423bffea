package wal_test

import (
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/store/wal"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/storetest"
)

// TestStoreConformance runs the shared store conformance suite against the
// WAL backend — default config, group-commit fsync, aggressive compaction
// (with and without fsync), segment rotation every few records (with and
// without fsync), and a store reopened on a data dir an earlier Open laid
// out and closed with no runs — so list order, eviction, Await, and cursor
// semantics are bit-identical to the in-memory store's.
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
	// with the waiters leading group commits.
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
	// The MANIFEST and shard-00 a first boot leaves behind, with no history
	// yet: the second Open reads the layout instead of writing it, and the
	// store then behaves as a fresh one.
	t.Run("ReopenedDir", func(t *testing.T) {
		storetest.Run(t, openIn(func(t *testing.T, dir string) {
			s, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("first wal.Open: %v", err)
			}
			s.Close()
		}, wal.Options{}))
	})
}
