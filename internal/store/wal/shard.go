package wal

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// walShard is one independent slice of the log: its own directory, mutex,
// active segment, sequence counter, compaction cycle, and group-commit
// batcher. Runs are routed here by shardIndex, so transitions for runs in
// different shards never contend on a lock or an fsync.
type walShard struct {
	store *Store
	index int
	dir   string

	mu         sync.Mutex
	seg        *os.File // active segment
	segBytes   int64
	nextSeq    uint64 // next file sequence number (segments and snapshots share it)
	appended   int    // records since the last compaction (or replayed since boot)
	compacting bool   // a background compaction is in flight
	closed     bool
	// cancelReq tracks runs in this shard with an acknowledged-but-unfinished
	// cancellation, so a compaction snapshot preserves the acknowledgement
	// (as an opCancelReq record) instead of flattening it into a plain put
	// that recovery would re-admit.
	cancelReq map[string]bool

	compactWG sync.WaitGroup
	gc        *groupCommit // nil unless group-commit fsync is on
	met       shardInstruments
}

func newShard(store *Store, index int) (*walShard, error) {
	sh := &walShard{
		store:     store,
		index:     index,
		dir:       filepath.Join(store.dir, shardDirName(index)),
		cancelReq: make(map[string]bool),
		met:       store.met.forShard(shardDirName(index)),
	}
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", shardDirName(index), err)
	}
	removeStaleTemps(sh.dir)
	return sh, nil
}

// openSegmentLocked starts a fresh active segment. Callers hold mu (or are
// still single-threaded in Open).
func (sh *walShard) openSegmentLocked() error {
	seq := sh.nextSeq
	sh.nextSeq++
	f, err := os.OpenFile(filepath.Join(sh.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	sh.seg = f
	sh.segBytes = 0
	return nil
}

// appendLocked writes one record to the active segment, triggering
// compaction or rotation as thresholds demand. Callers hold mu. The
// returned ticket is non-zero when the record's durability is deferred to
// the group committer: the caller must release mu and then waitDurable
// before acknowledging the transition.
func (sh *walShard) appendLocked(rec record) (uint64, error) {
	if sh.closed {
		return 0, errors.New("wal: store is closed")
	}
	buf, err := encodeFrame(nil, rec)
	if err != nil {
		return 0, err
	}
	if _, err := sh.seg.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	var ticket uint64
	if sh.gc != nil {
		ticket = sh.gc.ticket()
	}
	sh.segBytes += int64(len(buf))
	sh.appended++
	sh.met.appends.Inc()
	sh.met.appendedBytes.Add(float64(len(buf)))
	if sh.store.opts.CompactThreshold > 0 && sh.appended >= sh.store.opts.CompactThreshold && !sh.compacting {
		sh.compacting = true
		sh.compactWG.Add(1)
		go sh.doCompact()
		return ticket, nil
	}
	if sh.segBytes >= sh.store.opts.SegmentMaxBytes {
		if err := sh.rotateLocked(); err != nil {
			log.Printf("wal: segment rotation failed (segment keeps growing until it succeeds): %v", err)
		}
	}
	return ticket, nil
}

// waitDurable blocks until the ticketed record is on disk. A zero ticket
// means there is no group committer: Fsync is off and nothing is waited for.
func (sh *walShard) waitDurable(ticket uint64) error {
	if sh.gc == nil || ticket == 0 {
		return nil
	}
	return sh.gc.await(ticket)
}

// rotateLocked seals the active segment and starts a new one. Sealing syncs
// before closing, so every record written so far is durable — the group
// committer is advanced past all of them, and a committer that raced into
// Sync on the closed handle treats os.ErrClosed as success. Callers hold mu.
func (sh *walShard) rotateLocked() error {
	if err := sh.seg.Sync(); err != nil {
		return fmt.Errorf("wal: syncing sealed segment: %w", err)
	}
	if sh.gc != nil {
		sh.gc.markAllDurable()
	}
	if err := sh.seg.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	sh.met.rotations.Inc()
	return sh.openSegmentLocked()
}

// doCompact runs one background compaction. The shard lock is held only for
// phase 1 — allocating the snapshot's sequence number and rotating to a
// fresh active segment (the "swap") — so the write path never stalls behind
// the snapshot itself. Phase 2 encodes this shard's surviving runs, installs
// the snapshot atomically, and drops every file sealed before it.
//
// The snapshot may fold in state from records appended after the swap; that
// only ever makes recovery strictly newer, never loses an acknowledged
// record, because those records are still replayed on top of the snapshot.
func (sh *walShard) doCompact() {
	defer sh.compactWG.Done()
	t0 := time.Now()

	// Phase 1, under the lock: pick the snapshot's place in the chain and
	// swap in a fresh active segment. The sealed segments all sort below
	// snapSeq; the new active sorts above it.
	sh.mu.Lock()
	if sh.closed {
		sh.compacting = false
		sh.mu.Unlock()
		return
	}
	snapSeq := sh.nextSeq
	sh.nextSeq++
	if err := sh.rotateLocked(); err != nil {
		sh.compacting = false
		sh.mu.Unlock()
		log.Printf("wal: compaction swap failed (log keeps growing until it succeeds): %v", err)
		return
	}
	base := sh.appended
	sh.appended = 0
	cancelReq := make(map[string]bool, len(sh.cancelReq))
	for id := range sh.cancelReq {
		cancelReq[id] = true
	}
	sh.mu.Unlock()

	// Phase 2, off-path: snapshot this shard's slice of the store.
	fail := func(err error) {
		log.Printf("wal: compaction of %s failed (log keeps growing until it succeeds): %v", shardDirName(sh.index), err)
		sh.mu.Lock()
		sh.appended += base
		sh.compacting = false
		sh.mu.Unlock()
	}
	runs := sh.store.mem.List()
	var buf []byte
	count := 0
	var err error
	for i := range runs {
		if shardIndex(runs[i].ID, len(sh.store.shards)) != sh.index {
			continue
		}
		rec := record{Op: opPut, Run: &runs[i]}
		if cancelReq[runs[i].ID] && !runs[i].State.Terminal() {
			rec.Op = opCancelReq
		}
		if buf, err = encodeFrame(buf, rec); err != nil {
			fail(err)
			return
		}
		count++
	}
	if err := writeFileAtomic(sh.dir, snapshotName(snapSeq), buf); err != nil {
		fail(err)
		return
	}

	// The snapshot is durable; everything older is redundant. Removal
	// failures are tolerable (replay skips files at or below the snapshot's
	// sequence) — try again next compaction.
	snaps, segs, err := scanDir(sh.dir)
	if err == nil {
		for _, seq := range snaps {
			if seq < snapSeq {
				os.Remove(filepath.Join(sh.dir, snapshotName(seq)))
			}
		}
		for _, seq := range segs {
			if seq < snapSeq {
				os.Remove(filepath.Join(sh.dir, segmentName(seq)))
			}
		}
	}

	if dropped := base - count; dropped > 0 {
		sh.met.reclaimed.Add(float64(dropped))
	}
	sh.met.compactions.Inc()
	sh.met.compactSecs.Observe(time.Since(t0).Seconds())
	sh.mu.Lock()
	sh.compacting = false
	sh.mu.Unlock()
}

// close seals the shard: refuse new appends, stop the committer (draining
// one final batch), wait out any in-flight compaction, then sync and close
// the active segment.
func (sh *walShard) close() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil
	}
	sh.closed = true
	sh.mu.Unlock()

	if sh.gc != nil {
		sh.gc.stop()
	}
	sh.compactWG.Wait()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.seg == nil {
		return nil
	}
	if err := sh.seg.Sync(); err != nil {
		sh.seg.Close()
		return fmt.Errorf("wal: syncing on close: %w", err)
	}
	if sh.gc != nil {
		sh.gc.markAllDurable()
	}
	return sh.seg.Close()
}
