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

// groupCommit is the store's fsync batcher. Appends write their record to
// the active segment under the store lock, take a ticket (written), release
// the lock, and — all but Begin, whose record rides the next batch — park
// in await until the committer goroutine has fsynced past their ticket. One
// fsync therefore covers every record written since the previous one —
// under concurrent load, K per-record fsyncs collapse into ~1 — without
// weakening the durability contract: an awaited append does not return
// until its record is on disk.
//
// Durability can also be advanced without a committer fsync: sealing a
// segment (rotation, compaction's swap, Close) syncs the file first and
// then calls markAllDurable.
type groupCommit struct {
	mu       sync.Mutex
	cond     *sync.Cond
	written  uint64 // tickets issued: records written to the segment chain
	synced   uint64 // tickets durable: records covered by a completed fsync
	failedAt uint64 // high-water ticket of the last failed batch
	err      error  // last batch error; cleared by the next successful batch

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
// chain. Called with the store lock held, so ticket order matches file
// order.
func (gc *groupCommit) ticket() uint64 {
	gc.mu.Lock()
	gc.written++
	t := gc.written
	gc.mu.Unlock()
	return t
}

// await blocks until ticket seq is durable (covered by an fsync or a
// segment seal) or its batch's fsync failed.
func (gc *groupCommit) await(seq uint64) error {
	select {
	case gc.kick <- struct{}{}:
	default:
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for gc.synced < seq {
		if gc.err != nil && gc.failedAt >= seq {
			return gc.err
		}
		gc.cond.Wait()
	}
	return nil
}

// markAllDurable marks every ticket issued so far durable without an fsync
// of its own: called under the store lock right after a seal's sync
// (rotation, final sync on Close), when no new ticket can be issued
// concurrently. The lock order is always Store.mu → gc.mu.
func (gc *groupCommit) markAllDurable() {
	gc.mu.Lock()
	if gc.written > gc.synced {
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
func (gc *groupCommit) run(s *Store) {
	defer close(gc.done)
	for {
		select {
		case <-gc.kick:
		case <-gc.quit:
			gc.commit(s) // final drain for any parked waiters
			return
		}
		for gc.pending() > 0 {
			gc.coalesce()
			if !gc.commit(s) {
				// Sync failure: the waiters of this batch were failed; retry
				// only when a new append kicks, rather than hammering a sick
				// disk in a tight loop.
				break
			}
		}
	}
}

// coalesce gives appenders that are already runnable — typically workers
// woken by the previous batch's broadcast — a chance to land their records
// in this batch before the fsync is issued, by yielding the scheduler while
// the batch keeps growing. Yielding costs ~ns when nothing is runnable, so
// a lone append is effectively never delayed; sleeping here instead would
// serialize the whole store behind the timer granularity. fsyncMaxDelay bounds
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
// tickets issued before the sync began. Returns false if the sync failed
// (after failing that batch's waiters).
func (gc *groupCommit) commit(s *Store) bool {
	// Capture a consistent (segment, ticket) pair: every ticket ≤ upto was
	// written to the chain ending in seg. Records in earlier, sealed
	// segments are already durable (sealing syncs first).
	s.mu.Lock()
	seg := s.seg
	gc.mu.Lock()
	upto := gc.written
	already := gc.synced
	gc.mu.Unlock()
	s.mu.Unlock()
	if upto <= already {
		return true
	}

	t0 := time.Now()
	err := seg.Sync()
	if err == nil {
		s.met.fsyncs.Inc()
		s.met.fsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	if errors.Is(err, os.ErrClosed) {
		// The captured segment was sealed (sync + close under the store
		// lock) between capture and Sync; the seal's sync already made every
		// captured ticket durable.
		err = nil
	}

	gc.mu.Lock()
	defer gc.mu.Unlock()
	if err != nil {
		gc.err = err
		gc.failedAt = upto
		gc.cond.Broadcast()
		return false
	}
	gc.err = nil
	if upto > gc.synced {
		s.met.batchSize.Observe(float64(upto - gc.synced))
		gc.synced = upto
	}
	gc.cond.Broadcast()
	return true
}
