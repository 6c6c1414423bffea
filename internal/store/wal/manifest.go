package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// manifestName is the layout-pinning file at the data dir root.
const manifestName = "MANIFEST"

// logDirName is the data dir's one log directory: the name older, sharded
// versions gave their first shard.
const logDirName = "shard-00"

// manifest records the layout version and how many shard directories the
// data dir holds: 1 for every dir this version reads or writes. Older
// versions wrote more, routing each run to a shard by ID hash.
type manifest struct {
	Version    int `json:"version"`
	ShardCount int `json:"shards"`
}

// readManifest returns the data dir's manifest, or nil if none exists yet.
// An unreadable manifest is corruption: which directories hold the history
// is the one fact replay cannot reconstruct, so the store refuses to guess.
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
	return &m, nil
}

func writeManifest(dir string) error {
	data, err := json.Marshal(manifest{Version: 1, ShardCount: 1})
	if err != nil {
		return fmt.Errorf("wal: encoding manifest: %w", err)
	}
	return writeFileAtomic(dir, manifestName, append(data, '\n'))
}

// checkLayout accepts dir if it holds one log or nothing, and otherwise
// refuses it with every file left as it is:
//
//   - A manifest pinning one shard: the layout this version writes.
//   - A manifest pinning more: the retired sharded layout. An older version
//     folds it into one log on boot; this one no longer does.
//   - No manifest and nothing else: a fresh dir; a one-shard manifest is
//     written.
//   - No manifest but log files or shard directories: refused. Root-level
//     log files are the pre-shard single-stream layout, which this store no
//     longer reads; shard directories without a manifest mean the manifest
//     was lost, and with it which of them hold history. Both hold run
//     history that only an operator can decide about.
func checkLayout(dir string) error {
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	if m != nil {
		switch {
		case m.ShardCount > 1:
			return fmt.Errorf("wal: data dir %s holds the retired sharded layout (%s pins %d shards); boot it once with an older dagd, which folds it into one log; nothing was changed",
				dir, manifestName, m.ShardCount)
		case m.ShardCount < 1:
			return fmt.Errorf("wal: manifest pins implausible shard count %d", m.ShardCount)
		}
		removeStaleTemps(dir) // a manifest write that died before its rename
		return nil
	}

	snaps, segs, err := scanDir(dir)
	if err != nil {
		return err
	}
	if len(snaps)+len(segs) > 0 {
		return fmt.Errorf("wal: data dir %s holds an unsupported pre-shard layout (root-level log files, no %s); nothing was changed",
			dir, manifestName)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: scanning data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			return fmt.Errorf("wal: data dir %s holds shard directories without %s (which of them hold history is lost); nothing was changed",
				dir, manifestName)
		}
	}
	return writeManifest(dir)
}
