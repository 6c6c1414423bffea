package wal

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"time"
)

// fsyncMaxDelay is how long a group-commit batch may keep accumulating
// before its fsync is issued.
const fsyncMaxDelay = 2 * time.Millisecond

// groupCommit is the log's fsync batcher. Appends write their record to
// the active segment under the log's lock and take a ticket (written); once
// the store has released its write lock, every transition it logged parks
// in await until the committer goroutine has fsynced past its ticket. One fsync therefore covers every record
// written since the previous one — under concurrent load, K per-record
// fsyncs collapse into ~1 — without weakening the durability contract: an
// awaited append does not return until its record is on disk.
//
// Durability can also be advanced without a committer fsync: sealing a
// segment (rotation, compaction's swap) syncs the file first and then
// calls markAllDurable.
//
// A failed sync is sticky (package doc): err is set once and never
// cleared, and synced never moves again.
type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond
	written uint64 // tickets issued: records written to the segment chain
	synced  uint64 // tickets durable: records covered by a completed fsync
	err     error  // the first failed sync of the log

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

func newGroupCommit() *groupCommit {
	gc := &groupCommit{
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	gc.cond = sync.NewCond(&gc.mu)
	return gc
}

// ticket issues the commit ticket for a record just written to the segment
// chain. Called with the log's lock held, so ticket order matches file
// order.
func (gc *groupCommit) ticket() uint64 {
	gc.mu.Lock()
	gc.written++
	t := gc.written
	gc.mu.Unlock()
	return t
}

// await blocks until ticket seq is durable (covered by an fsync or a
// segment seal) or a sync of the log has failed.
func (gc *groupCommit) await(seq uint64) error {
	select {
	case gc.kick <- struct{}{}:
	default:
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for gc.synced < seq {
		if gc.err != nil {
			return gc.err
		}
		gc.cond.Wait()
	}
	return nil
}

// fail records a failed sync of the log, failing every waiter not yet
// durable, now and from here on.
func (gc *groupCommit) fail(err error) {
	gc.mu.Lock()
	if gc.err == nil {
		gc.err = err
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
}

// failure returns the sticky sync failure, if any.
func (gc *groupCommit) failure() error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.err
}

// markAllDurable marks every ticket issued so far durable without an fsync
// of its own: called under the log's lock right after a seal's sync, when
// no new ticket can be issued concurrently. The lock order is always
// walLog.mu → gc.mu.
func (gc *groupCommit) markAllDurable() {
	gc.mu.Lock()
	if gc.err == nil && gc.written > gc.synced {
		gc.synced = gc.written
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// pending returns how many written records are not yet durable.
func (gc *groupCommit) pending() uint64 {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.written - gc.synced
}

// stop drains one final batch and terminates the committer.
func (gc *groupCommit) stop() {
	close(gc.quit)
	<-gc.done
}

// run is the committer goroutine: woken by the first waiter of a
// batch, it fsyncs the active segment once for everything pending and wakes
// every waiter. Records that arrive while an fsync is in flight simply form
// the next batch, so the fsync rate is bounded by the disk, not the append
// rate.
func (gc *groupCommit) run(l *walLog) {
	defer close(gc.done)
	for {
		select {
		case <-gc.kick:
		case <-gc.quit:
			gc.commit(l) // final drain for any parked waiters
			return
		}
		for gc.pending() > 0 {
			gc.coalesce()
			if !gc.commit(l) {
				break // a sync failed, for good: every waiter is told
			}
		}
	}
}

// coalesce gives appenders that are already runnable — typically workers
// woken by the previous batch's broadcast — a chance to land their records
// in this batch before the fsync is issued, by yielding the scheduler while
// the batch keeps growing. Yielding costs ~ns when nothing is runnable, so
// a lone append is effectively never delayed; sleeping here instead would
// serialize the whole log behind the timer granularity. fsyncMaxDelay bounds
// the loop as a safety valve against pathological scheduling.
func (gc *groupCommit) coalesce() {
	deadline := time.Now().Add(fsyncMaxDelay)
	last := gc.pending()
	for {
		runtime.Gosched()
		cur := gc.pending()
		if cur == last {
			return // arrivals stopped; the batch is as big as it will get
		}
		last = cur
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// commit fsyncs the active segment and advances durability to the
// tickets issued before the sync began. Returns false once a sync of the
// log has failed: it never syncs or advances again.
func (gc *groupCommit) commit(l *walLog) bool {
	// Capture a consistent (segment, ticket) pair: every ticket ≤ upto was
	// written to the chain ending in seg. Records in earlier, sealed
	// segments are already durable (sealing syncs first).
	l.mu.Lock()
	seg := l.seg
	gc.mu.Lock()
	upto, already, failed := gc.written, gc.synced, gc.err != nil
	gc.mu.Unlock()
	l.mu.Unlock()
	if failed {
		return false
	}
	if upto <= already {
		return true
	}

	t0 := time.Now()
	err := l.sync(seg)
	if err == nil {
		l.met.fsyncs.Inc()
		l.met.fsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	if errors.Is(err, os.ErrClosed) {
		// The captured segment was sealed (sync + close under the log's
		// lock) between capture and Sync; the seal's sync already made every
		// captured ticket durable.
		err = nil
	}

	if err != nil {
		gc.fail(err)
		return false
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.err == nil && upto > gc.synced {
		l.met.batchSize.Observe(float64(upto - gc.synced))
		gc.synced = upto
	}
	gc.cond.Broadcast()
	return gc.err == nil
}
