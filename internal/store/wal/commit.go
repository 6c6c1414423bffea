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

// groupCommit is one shard's fsync batcher. Appends write their record to
// the active segment under the shard lock, take a ticket (written), release
// the lock, and — all but Begin, whose record rides the next batch — park
// in await until the committer goroutine has fsynced past their ticket. One
// fsync therefore covers every record written since the previous one —
// under concurrent load, K per-record fsyncs collapse into ~1 — without
// weakening the durability contract: an awaited append does not return
// until its record is on disk.
//
// Durability can also be advanced without a committer fsync: sealing a
// segment (rotation, compaction's swap, Close) syncs the file first and
// then calls advance for everything written so far.
type groupCommit struct {
	mu       sync.Mutex
	cond     *sync.Cond
	written  uint64 // tickets issued: records written to the shard's segment chain
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
// chain. Called with the shard lock held, so ticket order matches file
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

// advance marks every ticket up to upto durable without an fsync of its
// own — the caller just synced the file(s) holding them (segment seal,
// snapshot install, final sync on Close). Safe to call with the shard lock
// held; the lock order is always shard.mu → gc.mu.
func (gc *groupCommit) advance(upto uint64) {
	gc.mu.Lock()
	if upto > gc.synced {
		gc.synced = upto
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// markAllDurable is advance for "everything written so far": called under
// the shard lock right after a seal's sync, when no new ticket can be
// issued concurrently.
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

// run is the per-shard committer goroutine: woken by the first waiter of a
// batch, it fsyncs the active segment once for everything pending and wakes
// every waiter. Records that arrive while an fsync is in flight simply form
// the next batch, so the fsync rate is bounded by the disk, not the append
// rate.
func (gc *groupCommit) run(sh *walShard) {
	defer close(gc.done)
	for {
		select {
		case <-gc.kick:
		case <-gc.quit:
			gc.commit(sh) // final drain for any parked waiters
			return
		}
		for gc.pending() > 0 {
			gc.coalesce()
			if !gc.commit(sh) {
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
// serialize the whole shard behind the timer granularity. fsyncMaxDelay bounds
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

// commit fsyncs the shard's active segment and advances durability to the
// tickets issued before the sync began. Returns false if the sync failed
// (after failing that batch's waiters).
func (gc *groupCommit) commit(sh *walShard) bool {
	// Capture a consistent (segment, ticket) pair: every ticket ≤ upto was
	// written to the chain ending in seg. Records in earlier, sealed
	// segments are already durable (sealing syncs first).
	sh.mu.Lock()
	seg := sh.seg
	gc.mu.Lock()
	upto := gc.written
	already := gc.synced
	gc.mu.Unlock()
	sh.mu.Unlock()
	if upto <= already {
		return true
	}

	var err error
	if seg == nil {
		err = errors.New("wal: shard has no active segment")
	} else {
		t0 := time.Now()
		err = seg.Sync()
		if err == nil {
			sh.met.fsyncs.Inc()
			sh.met.fsyncSeconds.Observe(time.Since(t0).Seconds())
		}
	}
	if err != nil && errors.Is(err, os.ErrClosed) {
		// The captured segment was sealed (sync + close under the shard
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
		sh.met.batchSize.Observe(float64(upto - gc.synced))
		gc.synced = upto
	}
	gc.cond.Broadcast()
	return true
}
