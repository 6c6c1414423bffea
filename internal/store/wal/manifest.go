package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// maxShards bounds the shard count a manifest may pin. Older versions
// refused to write more, so a larger count is damage, not a layout.
const maxShards = 64

// manifestName is the layout-pinning file at the data dir root.
const manifestName = "MANIFEST"

// manifest records the layout version and how many shard directories the
// data dir holds: 1 for every dir this version writes, up to maxShards in
// one an older version wrote (its runs routed to a shard by ID hash), which
// Open folds into one log.
type manifest struct {
	Version    int `json:"version"`
	ShardCount int `json:"shards"`
}

// readManifest returns the data dir's manifest, or nil if none exists yet.
// An unreadable or implausible manifest is corruption: which shard
// directories hold the history is the one fact replay cannot reconstruct,
// so the store refuses to guess.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wal: manifest is corrupt: %v (refusing to guess the shard layout)", err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("wal: manifest version %d not supported", m.Version)
	}
	if m.ShardCount < 1 || m.ShardCount > maxShards {
		return nil, fmt.Errorf("wal: manifest pins implausible shard count %d", m.ShardCount)
	}
	return &m, nil
}

func writeManifest(dir string, shards int) error {
	data, err := json.Marshal(manifest{Version: 1, ShardCount: shards})
	if err != nil {
		return fmt.Errorf("wal: encoding manifest: %w", err)
	}
	return writeFileAtomic(dir, manifestName, append(data, '\n'))
}

// resolveShards returns how many shard directories dir's history is in:
//
//   - A manifest says: 1, or more for a dir an older version wrote, which
//     Open then folds.
//   - No manifest and nothing else: a fresh dir; a one-shard manifest is
//     written.
//   - No manifest but log files or shard directories: refused, with every
//     file left as it is. Root-level log files are the pre-shard
//     single-stream layout, which this store no longer reads; shard
//     directories without a manifest mean the manifest was lost, and with
//     it which of them hold history. Both hold run history that only an
//     operator can decide about.
func resolveShards(dir string) (int, error) {
	m, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	if m != nil {
		removeStaleTemps(dir) // a manifest write that died before its rename
		return m.ShardCount, nil
	}

	snaps, segs, err := scanDir(dir)
	if err != nil {
		return 0, err
	}
	if len(snaps)+len(segs) > 0 {
		return 0, fmt.Errorf("wal: data dir %s holds an unsupported pre-shard layout (root-level log files, no %s); nothing was changed",
			dir, manifestName)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: scanning data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			return 0, fmt.Errorf("wal: data dir %s holds shard directories without %s (which of them hold history is lost); nothing was changed",
				dir, manifestName)
		}
	}
	return 1, writeManifest(dir, 1)
}

// fold turns a data dir an older version wrote with shards > 1 into one
// log (package doc, "Folding a sharded data dir"). It replays shard-01 and
// up into replayed, which already holds shard-00, writes the union into
// shard-00 as one snapshot above every file there, and only once that is
// durable rewrites the manifest to one shard. Open removes the other shard
// directories afterwards. Nothing is written unless every shard loads.
func (l *walLog) fold(dataDir string, shards int, replayed *replayState) error {
	for i := 1; i < shards; i++ {
		d := filepath.Join(dataDir, shardDirName(i))
		if _, err := os.Stat(d); errors.Is(err, os.ErrNotExist) {
			continue // written before the older version created its shard dirs: it held nothing
		}
		if _, err := loadChain(d, replayed); err != nil {
			return fmt.Errorf("wal: replaying %s: %w", shardDirName(i), err)
		}
	}
	runs := replayed.list()
	sort.Slice(runs, func(i, j int) bool { return run.CompareRuns(runs[i], runs[j]) < 0 })
	buf, err := encodeSnapshot(runs, replayed.cancelRequested)
	if err != nil {
		return err
	}
	snapSeq := l.nextSeq
	l.nextSeq++
	if err := writeFileAtomic(l.dir, snapshotName(snapSeq), buf); err != nil {
		return err
	}
	removeBelow(l.dir, snapSeq)
	return writeManifest(dataDir, 1)
}

// removeFoldedShards removes shard-01 and up from a one-shard data dir: what
// a fold leaves behind when it stops between its manifest rewrite and the
// removal, redundant since the snapshot that covers them is durable.
func removeFoldedShards(dataDir string) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") && e.Name() != shardDirName(0) {
			os.RemoveAll(filepath.Join(dataDir, e.Name()))
		}
	}
}
