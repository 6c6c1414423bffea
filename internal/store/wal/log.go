package wal

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
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

// Append writes op's record of r to the active segment, triggering
// compaction or rotation as thresholds demand (run.Log). With Fsync on, the
// returned ticket is non-zero and Wait makes the record durable.
func (l *walLog) Append(op run.Op, r *run.Run) (uint64, error) {
	buf, err := encodeFrame(nil, record{Op: op, Run: r})
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if l.syncErr != nil {
		return 0, fmt.Errorf("wal: refusing appends after a failed sync: %w", l.syncErr)
	}
	if _, err := l.seg.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	var ticket uint64
	if l.opts.Fsync {
		l.written++
		ticket = l.written
	}
	l.segBytes += int64(len(buf))
	l.appended++
	l.met.appends.Inc()
	l.met.appendedBytes.Add(float64(len(buf)))
	if l.opts.CompactThreshold > 0 && l.appended >= l.opts.CompactThreshold && !l.compacting {
		l.compacting = true
		l.compactWG.Add(1)
		go l.doCompact()
		return ticket, nil
	}
	if l.segBytes >= l.opts.SegmentMaxBytes {
		if err := l.rotateLocked(); err != nil {
			log.Printf("wal: segment rotation failed (the active segment keeps growing until one succeeds): %v", err)
		}
	}
	return ticket, nil
}

// rotateLocked makes a fresh segment the active one. The successor is
// created first, so a failure to create it (a taken name, no descriptors,
// no space) leaves the current segment active and appends carry on into
// it. Sealing makes every record written so far durable; a leader that
// raced into Sync on the sealed handle treats os.ErrClosed as success. If
// the seal's sync fails the successor is discarded and the current segment
// stays active (see sealLocked). Callers hold mu.
func (l *walLog) rotateLocked() error {
	next, err := createSegment(l.dir, l.nextSeq)
	if err != nil {
		return err
	}
	if err := l.sealLocked(); err != nil {
		next.Close()
		os.Remove(next.Name())
		return err
	}
	l.seg, l.segBytes = next, 0
	l.nextSeq++
	l.met.rotations.Inc()
	return nil
}

// doCompact runs one background compaction. The log's lock is held only
// for phase 1 — allocating the snapshot's sequence number and rotating to a
// fresh active segment (the "swap") — so the write path never stalls behind
// the snapshot itself. Phase 2 encodes every surviving run, installs the
// snapshot atomically, and drops every file sealed before it.
//
// The snapshot may fold in state from records appended after the swap; that
// only ever makes recovery strictly newer, never loses an acknowledged
// record, because those records are still replayed on top of the snapshot.
func (l *walLog) doCompact() {
	defer l.compactWG.Done()
	t0 := time.Now()

	// Phase 1, under the lock: pick the snapshot's place in the chain and
	// swap in a fresh active segment. The sealed segments all sort below
	// snapSeq; the new active sorts above it.
	l.mu.Lock()
	if l.closed {
		l.compacting = false
		l.mu.Unlock()
		return
	}
	snapSeq := l.nextSeq
	l.nextSeq++
	if err := l.rotateLocked(); err != nil {
		l.compacting = false
		l.mu.Unlock()
		log.Printf("wal: compaction swap failed (log keeps growing until it succeeds): %v", err)
		return
	}
	base := l.appended
	l.appended = 0
	l.mu.Unlock()

	// Phase 2, off-path: snapshot the store.
	runs := l.store.List()
	buf, err := encodeSnapshot(runs)
	if err == nil {
		err = writeFileAtomic(l.dir, snapshotName(snapSeq), buf)
	}
	if err != nil {
		log.Printf("wal: compaction failed (log keeps growing until it succeeds): %v", err)
		l.mu.Lock()
		l.appended += base
		l.compacting = false
		l.mu.Unlock()
		return
	}
	// The snapshot is durable; everything older is redundant.
	removeBelow(l.dir, snapSeq)

	if dropped := base - len(runs); dropped > 0 {
		l.met.reclaimed.Add(float64(dropped))
	}
	l.met.compactions.Inc()
	l.met.compactSecs.Observe(time.Since(t0).Seconds())
	l.mu.Lock()
	l.compacting = false
	l.mu.Unlock()
}

// Close seals the log (run.Log): refuse new appends, wait out any
// in-flight compaction, then seal the active segment, which makes every
// record written durable for the waiters still to come.
func (l *walLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	l.compactWG.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sealLocked(); err != nil {
		l.seg.Close()
		return err
	}
	return nil
}
