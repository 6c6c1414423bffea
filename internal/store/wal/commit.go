package wal

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// fsyncMaxDelay is how long a group-commit batch may keep accumulating
// before its fsync is issued.
const fsyncMaxDelay = 2 * time.Millisecond

// Group commit runs on its callers, under the log's lock. With Fsync on,
// Append writes its record and takes a ticket (written); once the store
// has released its write lock, Wait checks the ticket against the durable
// watermark (synced). A waiter that is behind parks while a sync is in
// flight, and otherwise leads the next batch: it fsyncs once for every
// record written so far and wakes the rest.
//
// Sealing a segment (rotation, compaction's swap, Close) also makes
// everything written durable: it syncs the file first (sealLocked).
//
// A failed sync is sticky (package doc): syncErr is set once and never
// cleared, and synced never moves again.

// Wait blocks until the ticketed record is on disk (run.Log), and with it
// every record appended before it. A zero ticket means Fsync is off and
// nothing is waited for.
func (l *walLog) Wait(ticket uint64) error {
	if ticket == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < ticket {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.syncing {
			l.cond.Wait()
		} else {
			l.commitLocked()
		}
	}
	return nil
}

// commitLocked leads one batch: it coalesces, fsyncs the active segment
// outside the lock and advances durability to the tickets issued before
// the sync began. Called with mu held and no sync in flight; returns with
// mu held.
func (l *walLog) commitLocked() {
	l.syncing = true
	defer func() {
		l.syncing = false
		l.cond.Broadcast()
	}()
	l.coalesceLocked()
	// Every ticket ≤ upto was written to the chain ending in seg. Records in
	// earlier, sealed segments are already durable (sealing syncs first).
	seg, upto := l.seg, l.written
	if upto <= l.synced || l.syncErr != nil {
		return // a seal covered the batch, or failed, while it coalesced
	}
	l.mu.Unlock()
	t0 := time.Now()
	err := l.sync(seg)
	if err == nil {
		l.met.fsyncs.Inc()
		l.met.fsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	if errors.Is(err, os.ErrClosed) {
		// seg was sealed (sync + close under the lock) between capture and
		// Sync; the seal's sync already made every captured ticket durable.
		err = nil
	}
	l.mu.Lock()
	if err != nil {
		l.failLocked(err)
		return
	}
	if l.syncErr == nil && upto > l.synced {
		l.met.batchSize.Observe(float64(upto - l.synced))
		l.synced = upto
	}
}

// coalesceLocked gives appenders that are already runnable — typically
// workers woken by the previous batch's broadcast — a chance to land their
// records in this batch before the fsync is issued, by releasing the lock
// and yielding the scheduler while the batch keeps growing. Yielding costs
// ~ns when nothing is runnable, so a lone append is effectively never
// delayed; sleeping here instead would serialize the whole log behind the
// timer granularity. fsyncMaxDelay bounds the loop as a safety valve
// against pathological scheduling.
func (l *walLog) coalesceLocked() {
	deadline := time.Now().Add(fsyncMaxDelay)
	for last := l.written; ; last = l.written {
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		if l.written == last || !time.Now().Before(deadline) {
			return // arrivals stopped, or the batch ran out of time
		}
	}
}

// failLocked records a failed sync of the log, failing every waiter not
// yet durable, now and from here on.
func (l *walLog) failLocked(err error) {
	if l.syncErr == nil {
		l.syncErr = err
	}
	l.cond.Broadcast()
}

// sealLocked syncs the active segment, marks every record written so far
// durable, and closes the segment (synced: a close error loses nothing).
// On a failed sync the segment stays open and the failure is returned;
// with Fsync on it is also the log's, sticky (package doc). Callers hold
// mu.
func (l *walLog) sealLocked() error {
	if err := l.sync(l.seg); err != nil {
		err = fmt.Errorf("wal: syncing sealed segment: %w", err)
		if l.opts.Fsync {
			l.failLocked(err)
		}
		return err
	}
	if l.syncErr == nil && l.written > l.synced {
		l.synced = l.written
		l.cond.Broadcast()
	}
	l.seg.Close()
	return nil
}
