package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DefaultShards is the shard count for a freshly initialized data dir when
// Options.Shards is 0. Beyond the core count extra shards only add file
// handles; 8 keeps per-shard contention negligible on typical hosts while
// the manifest lets bigger deployments pin more.
const DefaultShards = 8

// MaxShards bounds the shard count: past this, per-shard batching degrades
// (each shard sees too few appends to group) and open-file pressure grows.
const MaxShards = 64

// ErrShardCountMismatch is returned by Open when the requested shard count
// disagrees with the one pinned in the data dir's manifest. Records are
// routed to shards by run-ID hash mod the shard count, so opening an
// existing layout with a different count would split each run's history
// across shards; the store fails closed instead.
var ErrShardCountMismatch = errors.New("wal: shard count mismatch")

// manifestName is the layout-pinning file at the data dir root.
const manifestName = "MANIFEST"

// manifest pins the facts replay cannot re-derive: the layout version and
// the shard count every run ID was hashed with.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// readManifest returns the data dir's manifest, or nil if none exists yet.
// An unreadable or implausible manifest is corruption: the shard count is
// the one fact replay cannot reconstruct, so the store refuses to guess.
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
	if m.Shards < 1 || m.Shards > MaxShards {
		return nil, fmt.Errorf("wal: manifest pins implausible shard count %d", m.Shards)
	}
	return &m, nil
}

func writeManifest(dir string, shards int) error {
	data, err := json.Marshal(manifest{Version: 1, Shards: shards})
	if err != nil {
		return fmt.Errorf("wal: encoding manifest: %w", err)
	}
	return writeFileAtomic(dir, manifestName, append(data, '\n'))
}

// resolveShards decides the shard count for dir:
//
//   - A manifest pins the count. A non-zero request that disagrees is
//     refused with ErrShardCountMismatch — re-hashing run IDs with a new
//     modulus would scatter each run's records across shards and break the
//     per-shard replay-order guarantee.
//   - No manifest and nothing else: a fresh dir; the manifest is written
//     with the requested (or default) count.
//   - No manifest but log files or shard directories: refused, with every
//     file left as it is. Root-level log files are the pre-shard
//     single-stream layout, which this store no longer reads; shard
//     directories without a manifest mean the manifest was lost, and with
//     it the modulus their runs were hashed by. Both hold run history that
//     only an operator can decide about.
func resolveShards(dir string, requested int) (int, error) {
	if requested < 0 || requested > MaxShards {
		return 0, fmt.Errorf("wal: shard count %d out of range [1,%d] (0 = adopt existing layout or default %d)",
			requested, MaxShards, DefaultShards)
	}
	m, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	if m != nil {
		if requested != 0 && requested != m.Shards {
			return 0, fmt.Errorf("%w: data dir %s was created with %d shards, asked to open with %d (a run's records live in exactly one shard; a different count would split its history)",
				ErrShardCountMismatch, dir, m.Shards, requested)
		}
		removeStaleTemps(dir) // a manifest write that died before its rename
		return m.Shards, nil
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
			return 0, fmt.Errorf("wal: data dir %s holds shard directories without %s (the shard count their runs were hashed with is lost); nothing was changed",
				dir, manifestName)
		}
	}
	n := requested
	if n == 0 {
		n = DefaultShards
	}
	if err := writeManifest(dir, n); err != nil {
		return 0, err
	}
	return n, nil
}
