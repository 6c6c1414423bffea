// Package wal is the durable run.Log: an append-only write-ahead log of
// run state transitions that a run.Store writes through. The store serves
// every read from memory and appends each transition under its write lock,
// in the order it applied them (run.Store's doc says which transitions are
// awaited and what recovery makes of interrupted runs); Open replays the
// log into a fresh store on boot, so a crashed dagd rebuilds its run
// history and re-admits interrupted work.
//
// # On-disk layout
//
// A data directory holds one log, in the directory names older versions
// gave a log sharded by run-ID hash, at one shard:
//
//	MANIFEST   {"version":1,"shards":1}
//	shard-00/  the log's segments and snapshots
//
// so an older binary opens what this one writes. Every other layout is
// refused, with every file left as it is: a manifest that pins more than
// one shard (the retired sharded layout, which older versions fold into
// one log on boot), and a directory that holds log files or shard
// directories but no manifest (the pre-shard single-stream layout, or a
// lost manifest).
//
// In the log directory, files follow the original single-stream format —
// both are sequences of identically framed records:
//
//	wal-<seq>.log      active/sealed log segments, one record per transition
//	snapshot-<seq>.log compacted baseline: one record per surviving run
//
// Each record is framed as
//
//	[4-byte big-endian payload length][4-byte big-endian CRC32 (IEEE) of payload][payload]
//
// where the payload is one JSON-encoded record: a run.Op name plus either a
// full post-transition run snapshot ("create", "finish", "cancel",
// "cancelreq", "requeue", "put") or a bare run ID ("del", which only
// older versions wrote, for deletes, submit rollbacks and evictions;
// replay honours them). Older logs also hold "begin" records, and
// "cancelreq" records whose snapshot lacks cancel_requested; replay reads
// the first as any snapshot and sets the flag on the second. Carrying the
// full snapshot makes replay trivially idempotent — the last record for an
// ID wins, with nothing kept beside it — and means a reordered or partially
// missing history still converges to a valid state.
//
// # Durability: group-commit fsync
//
// With Options.Fsync on, an awaited append does not return until its record
// is on disk — but the fsync itself is batched, by the waiters themselves:
// the first waiter whose record is not yet durable fsyncs once for every
// record written so far, and every record that arrives while that sync is
// in flight joins the next batch, which one of its own waiters leads (a
// batch accumulates for at most 2ms). So K concurrent appends cost ~1
// fsync instead of K without weakening the contract, and the log runs no
// goroutine of its own to commit. A lone append is never delayed.
// Compaction snapshots are always fsynced before old segments are removed,
// regardless of the Fsync setting.
//
// A failed segment sync is sticky. The kernel may have dropped the pages it
// could not write, so a later sync that succeeds proves nothing about them:
// once one fails, every record not yet durable fails its wait, nothing is
// marked durable again, and every append is refused, until a restart
// replays what the disk kept. Without Fsync nothing waits on a sync — the
// promise is process-crash durability, which the page cache keeps — and a
// failed rotation sync is only logged.
//
// # Compaction: off the write path
//
// When the log accumulates CompactThreshold records it compacts in a
// background goroutine: the log's lock is held only long enough to swap in
// a fresh active segment; snapshotting the store the log is attached to,
// encoding and installing the snapshot (and deleting the superseded files)
// happen off-path, so the write path never stalls behind it.
//
// Compaction is also where evicted runs leave the disk, since a snapshot
// holds what the store holds; a replay before then hands them back (see
// run.Store). So reopening with a larger retention bound can bring back
// runs evicted since the last compaction (true history, never wrong data),
// and with compaction disabled (CompactThreshold < 0) replay's working set
// is every run ever logged.
//
// # Replay and corruption policy
//
// Open replays the log: the highest-numbered snapshot, then every later
// segment in sequence order. A truncated or checksum-failing record in the
// final (active-at-crash) segment is treated as a torn tail: that file is
// truncated at the last good record and recovery proceeds — a crash
// mid-append must not brick the store. The same damage in any earlier file
// means real corruption (those files were sealed complete), and Open
// refuses to load rather than resurrect a partial history. Records that
// decode but fail validation (empty ID, unknown op) follow the same policy.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// Options configures a WAL.
type Options struct {
	// Fsync makes every acknowledged transition durable against power loss,
	// not just process crash: an awaited append (see run.Store) does not
	// return until its record is fsynced. Off by default — the OS page
	// cache survives SIGKILL. Syncs are group-committed by the waiters
	// (see Wait), so the cost under concurrent load is ~1 fsync per batch,
	// not per record. Compaction snapshots are always fsynced before old
	// segments are removed, regardless of this setting.
	Fsync bool
	// CompactThreshold is how many records may be appended to the log (or
	// replayed from it on boot) before it compacts in the background: all
	// surviving runs — mostly terminal history — are written into a
	// snapshot file and the older segments deleted. Zero means 4096;
	// negative disables compaction.
	CompactThreshold int
	// SegmentMaxBytes rotates the active segment once it grows past this
	// size, bounding the largest file replay must buffer. Zero means 8MB.
	SegmentMaxBytes int64
	// Metrics receives the log's instrumentation (append/fsync volume and
	// latency, commit batch sizes, rotations, compactions). Nil disables it.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.CompactThreshold == 0 {
		o.CompactThreshold = 4096
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 8 << 20
	}
	return o
}

// walLog is the run.Log Open attaches to the store it returns. The store
// appends under its write lock; mu serializes appends with rotation, the
// compaction swap and group commit, whose state it also guards.
type walLog struct {
	dir   string // the log's directory: shard-00 of the data dir
	opts  Options
	met   walInstruments
	store *run.Store           // the store writing through this log, which compaction snapshots
	sync  func(*os.File) error // every segment sync: (*os.File).Sync, or a test's failpoint

	mu         sync.Mutex
	seg        *os.File // active segment
	segBytes   int64
	nextSeq    uint64 // next file sequence number (segments and snapshots share it)
	appended   int    // records since the last compaction (or replayed since boot)
	compacting bool   // a background compaction is in flight
	closed     bool

	// Group commit (commit.go); tickets are issued only with Fsync on.
	written uint64    // tickets issued: records written to the segment chain
	synced  uint64    // tickets durable: covered by a completed fsync or seal
	syncing bool      // a waiter is leading a batch's fsync
	syncErr error     // the first failed sync of the log
	cond    sync.Cond // on mu: a batch finished or failed

	compactWG sync.WaitGroup
}

// Open loads (or initializes) the WAL in dataDir and returns a store
// recovered from it and writing through it, plus the runs recovery
// re-admitted — every run that was queued or running at crash time, already
// reset to queued — oldest first, for the caller to hand to its dispatcher.
// Closing the store closes the log.
func Open(dataDir string, opts Options) (*run.Store, []run.Run, error) {
	l, recovered, err := open(dataDir, opts)
	if err != nil {
		return nil, nil, err
	}
	return l.store, recovered, nil
}

// open is Open, returning the log the store writes through.
func open(dataDir string, opts Options) (*walLog, []run.Run, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	if err := checkLayout(dataDir); err != nil {
		return nil, nil, err
	}
	l := &walLog{
		dir:  filepath.Join(dataDir, logDirName),
		opts: opts,
		met:  newWALInstruments(opts.Metrics),
		sync: (*os.File).Sync,
	}
	l.cond.L = &l.mu
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", logDirName, err)
	}
	removeStaleTemps(l.dir)
	replayed := replayState{}
	maxSeq, err := loadChain(l.dir, replayed)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: replaying %s: %w", logDirName, err)
	}
	l.nextSeq = maxSeq + 1
	l.appended = len(replayed)

	if l.seg, err = createSegment(l.dir, l.nextSeq); err != nil {
		return nil, nil, err
	}
	l.nextSeq++
	l.store = run.NewStore(l)
	recovered, err := l.store.Recover(replayed.list())
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, recovered, nil
}
