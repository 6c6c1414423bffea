package wal

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"time"
)

// createSegment creates the segment file seq in dir. O_EXCL: a name already
// taken is an error, never a file to append to.
func createSegment(dir string, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	return f, nil
}

// appendLocked writes one record to the active segment, triggering
// compaction or rotation as thresholds demand. Callers hold mu. The
// returned ticket is non-zero when the record's durability is deferred to
// the group committer: the caller must release mu and then waitDurable
// before acknowledging the transition.
func (s *Store) appendLocked(rec record) (uint64, error) {
	if s.closed {
		return 0, errors.New("wal: store is closed")
	}
	buf, err := encodeFrame(nil, rec)
	if err != nil {
		return 0, err
	}
	if _, err := s.seg.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	var ticket uint64
	if s.gc != nil {
		ticket = s.gc.ticket()
	}
	s.segBytes += int64(len(buf))
	s.appended++
	s.met.appends.Inc()
	s.met.appendedBytes.Add(float64(len(buf)))
	if s.opts.CompactThreshold > 0 && s.appended >= s.opts.CompactThreshold && !s.compacting {
		s.compacting = true
		s.compactWG.Add(1)
		go s.doCompact()
		return ticket, nil
	}
	if s.segBytes >= s.opts.SegmentMaxBytes {
		if err := s.rotateLocked(); err != nil {
			log.Printf("wal: segment rotation failed (the active segment keeps growing until one succeeds): %v", err)
		}
	}
	return ticket, nil
}

// commitLocked is an awaited append: it appends rec, releases mu, and
// waits until the record is durable.
func (s *Store) commitLocked(rec record) error {
	ticket, err := s.appendLocked(rec)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.waitDurable(ticket)
}

// waitDurable blocks until the ticketed record is on disk. A zero ticket
// means there is no group committer: Fsync is off and nothing is waited for.
func (s *Store) waitDurable(ticket uint64) error {
	if s.gc == nil || ticket == 0 {
		return nil
	}
	return s.gc.await(ticket)
}

// rotateLocked makes a fresh segment the active one. The successor is
// created first, so a failure to create it (a taken name, no descriptors,
// no space) leaves the current segment active and appends carry on into
// it. Sealing syncs before closing, so every record written so far is
// durable — the group committer is advanced past all of them, and a
// committer that raced into Sync on the closed handle treats os.ErrClosed
// as success. If the sync fails the successor is discarded and the current
// segment stays active. Callers hold mu.
func (s *Store) rotateLocked() error {
	next, err := createSegment(s.dir, s.nextSeq)
	if err != nil {
		return err
	}
	if err := s.seg.Sync(); err != nil {
		next.Close()
		os.Remove(next.Name())
		return fmt.Errorf("wal: syncing sealed segment: %w", err)
	}
	if s.gc != nil {
		s.gc.markAllDurable()
	}
	s.seg.Close() // synced: a close error loses nothing
	s.seg, s.segBytes = next, 0
	s.nextSeq++
	s.met.rotations.Inc()
	return nil
}

// doCompact runs one background compaction. The store lock is held only
// for phase 1 — allocating the snapshot's sequence number and rotating to a
// fresh active segment (the "swap") — so the write path never stalls behind
// the snapshot itself. Phase 2 encodes every surviving run, installs the
// snapshot atomically, and drops every file sealed before it.
//
// The snapshot may fold in state from records appended after the swap; that
// only ever makes recovery strictly newer, never loses an acknowledged
// record, because those records are still replayed on top of the snapshot.
func (s *Store) doCompact() {
	defer s.compactWG.Done()
	t0 := time.Now()

	// Phase 1, under the lock: pick the snapshot's place in the chain and
	// swap in a fresh active segment. The sealed segments all sort below
	// snapSeq; the new active sorts above it.
	s.mu.Lock()
	if s.closed {
		s.compacting = false
		s.mu.Unlock()
		return
	}
	snapSeq := s.nextSeq
	s.nextSeq++
	if err := s.rotateLocked(); err != nil {
		s.compacting = false
		s.mu.Unlock()
		log.Printf("wal: compaction swap failed (log keeps growing until it succeeds): %v", err)
		return
	}
	base := s.appended
	s.appended = 0
	cancelReq := maps.Clone(s.cancelReq)
	s.mu.Unlock()

	// Phase 2, off-path: snapshot the store.
	runs := s.mem.List()
	buf, err := encodeSnapshot(runs, cancelReq)
	if err == nil {
		err = writeFileAtomic(s.dir, snapshotName(snapSeq), buf)
	}
	if err != nil {
		log.Printf("wal: compaction failed (log keeps growing until it succeeds): %v", err)
		s.mu.Lock()
		s.appended += base
		s.compacting = false
		s.mu.Unlock()
		return
	}
	// The snapshot is durable; everything older is redundant.
	removeBelow(s.dir, snapSeq)

	if dropped := base - len(runs); dropped > 0 {
		s.met.reclaimed.Add(float64(dropped))
	}
	s.met.compactions.Inc()
	s.met.compactSecs.Observe(time.Since(t0).Seconds())
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
}

// Close seals the store: refuse new appends, stop the committer (draining
// one final batch), wait out any in-flight compaction, then sync and close
// the active segment. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	if s.gc != nil {
		s.gc.stop()
	}
	s.compactWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("wal: syncing on close: %w", err)
	}
	if s.gc != nil {
		s.gc.markAllDurable()
	}
	return s.seg.Close()
}
