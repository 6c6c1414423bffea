package sched

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// Work-stealing core. Each worker owns a deque of ready items: it pushes
// and pops at the tail (LIFO, so execution runs depth-first along the DAG
// and stays cache-warm), while idle workers steal half a victim's deque
// from the head (FIFO, so thieves take the oldest — widest — frontier and
// leave the victim its hot tail). A retiring node publishes all of its
// newly-ready children in a single batched push; the first child is kept
// back and executed directly, so a chain of unary nodes never touches a
// deque at all.
//
// Memory-model note: a child's parents' values are always visible to the
// worker that executes it. The last parent's writer performs an atomic
// decrement that reaches zero, then publishes the child either by keeping
// it (same goroutine, program order) or under the deque mutex; any other
// parent's write is ordered before its own decrement, and Go's
// sequentially-consistent atomics order that decrement before the final
// one. Acquiring the deque mutex (locally or via steal) therefore
// establishes happens-before from every parent's write to the child's read,
// and runs stay clean under the race detector.

// wsItem is one deque entry. chunk 0 means "the whole node"; chunk k > 0 is
// the k-th slice of a split node's emulated work (the Nabbit
// UseParallelNodes mode, see the split-work section of the worker loop).
type wsItem struct {
	id    dag.NodeID
	chunk int32
}

// wsDeque is one worker's ready queue. The trailing pad keeps separately
// indexed deques off each other's cache line (the struct is padded to 64
// bytes and heap-allocated individually).
type wsDeque struct {
	mu  sync.Mutex
	buf []wsItem
	_   [24]byte
}

// pushBatch appends items to the tail under one lock acquisition.
func (q *wsDeque) pushBatch(items []wsItem) {
	q.mu.Lock()
	q.buf = append(q.buf, items...)
	q.mu.Unlock()
}

// popTail removes and returns the newest entry (owner side, LIFO).
func (q *wsDeque) popTail() (wsItem, bool) {
	q.mu.Lock()
	n := len(q.buf)
	if n == 0 {
		q.mu.Unlock()
		return wsItem{}, false
	}
	it := q.buf[n-1]
	q.buf = q.buf[:n-1]
	q.mu.Unlock()
	return it, true
}

// stealHalf removes the oldest half (rounded up) of the deque and appends
// it to into, returning the extended slice. Stealing from the head keeps
// FIFO order for the thief and leaves the victim its recently pushed tail.
func (q *wsDeque) stealHalf(into []wsItem) []wsItem {
	q.mu.Lock()
	n := len(q.buf)
	if n == 0 {
		q.mu.Unlock()
		return into
	}
	k := (n + 1) / 2
	into = append(into, q.buf[:k]...)
	rest := copy(q.buf, q.buf[k:])
	q.buf = q.buf[:rest]
	q.mu.Unlock()
	return into
}

// wsRun is the per-run scheduling state shared by all workers: the one core
// behind Executor.Run and RunDynamic. It executes a DynamicGraph; a static
// DAG enters as the graph whose Expand never discovers anything (see
// staticGraph), so its whole node table is the flat part and ensure never
// grows it.
type wsRun struct {
	g DynamicGraph
	f Compute

	// Node table. The nodes known when the run starts sit in the flat
	// values/pending slices (values doubles as the result when nothing grew).
	// Nodes discovered later live in segments reached through dir, an
	// immutable slice that growth replaces wholesale: growers serialize on
	// growMu, readers take no lock. size is published last, after the
	// segments exist and the new counters are initialized.
	values  []uint64
	pending []atomic.Int32
	dir     atomic.Pointer[[]*segment]
	growMu  sync.Mutex
	size    atomic.Int64 // nodes covered by the table so far

	deques []*wsDeque
	// wake is a token semaphore for parked workers: every publish of ready
	// work sends up to one token per item (non-blocking, capacity = worker
	// count), so a worker that scanned every deque empty and blocked is
	// guaranteed a wakeup for work published after its scan.
	wake chan struct{}
	// stop ends the run: with nil once every covered node has retired, with
	// the expansion error if the graph fails to grow. It cancels the context
	// the workers poll, so the caller's cancellation, completion and failure
	// all reach a worker through the same channel.
	stop    context.CancelCauseFunc
	retired atomic.Int64
	steals  atomic.Int64 // successful stealHalf operations this run

	// Split-work state (Nabbit UseParallelNodes). When splitWork > 0 the
	// Compute hook is pure (no spin folded in) and the scheduler burns
	// splitWork spin iterations per node itself, sliced into chunks pieces
	// that idle workers can steal. remaining[v] counts a node's unfinished
	// slices; whichever worker drops it to zero finalizes the node. Only
	// Executor.Run sets it, on a graph that never grows, so remaining covers
	// the flat part of the table only.
	splitWork int
	chunks    int
	remaining []atomic.Int32
	splitMask atomic.Uint64 // bit per worker (mod 64) that ran a split slice
}

// run executes f over every node g has and discovers, on a pool of workers
// goroutines, and returns the per-node values indexed by NodeID.
func (r *wsRun) run(ctx context.Context, workers int) ([]uint64, error) {
	n := r.g.NumNodes()
	r.values = make([]uint64, n)
	r.pending = make([]atomic.Int32, n)
	r.size.Store(int64(n))
	if r.chunks > 1 {
		r.remaining = make([]atomic.Int32, n)
	}
	r.deques = make([]*wsDeque, workers)
	for i := range r.deques {
		r.deques[i] = new(wsDeque)
	}
	r.wake = make(chan struct{}, workers)
	// Seed the sources round-robin across the deques so workers start with
	// disjoint work. Workers have not started yet, so plain appends are fine.
	seeded := 0
	for v := 0; v < n; v++ {
		deg := len(r.g.Parents(dag.NodeID(v)))
		r.pending[v].Store(int32(deg))
		if deg == 0 {
			q := r.deques[seeded%workers]
			q.buf = append(q.buf, wsItem{id: dag.NodeID(v)})
			seeded++
		}
	}
	if seeded == 0 {
		return r.values, nil
	}

	ctx, r.stop = context.WithCancelCause(ctx)
	defer r.stop(nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			r.worker(ctx.Done(), self)
		}(w)
	}
	wg.Wait()
	// Flush this run's tallies into the process-lifetime counters once,
	// after the pool drains — the workers themselves never touch a shared
	// sink.
	nodesExecuted.Add(r.retired.Load())
	stealsTotal.Add(r.steals.Load())
	// A run that retired every node is a success even if ctx was cancelled
	// in the instant between the last retirement and the workers draining.
	if n := r.size.Load(); r.retired.Load() == n {
		return r.results(int(n)), nil
	}
	// Otherwise something stopped the workers early, and the cause says
	// what: the caller's ctx.Err(), or the expansion error handed to stop.
	return nil, context.Cause(ctx)
}

// chunkSize returns the spin iterations of slice k (1-based): splitWork
// divided as evenly as possible, with the remainder spread over the lowest
// slice numbers so every slice differs by at most one iteration.
func (r *wsRun) chunkSize(k int) int {
	base := r.splitWork / r.chunks
	if k <= r.splitWork%r.chunks {
		base++
	}
	return base
}

// markSplit records that worker self executed a split slice. Go 1.22 has no
// atomic Or, so the bit lands via a CAS loop.
func (r *wsRun) markSplit(self int) {
	bit := uint64(1) << (uint(self) % 64)
	for {
		old := r.splitMask.Load()
		if old&bit != 0 || r.splitMask.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// notify wakes up to k parked workers, dropping tokens once the semaphore
// is full (at that point every worker already has a pending wakeup).
func (r *wsRun) notify(k int) {
	for i := 0; i < k; i++ {
		select {
		case r.wake <- struct{}{}:
		default:
			return
		}
	}
}

// steal scans the other workers' deques round-robin from self+1 and takes
// half of the first non-empty one: the first stolen item is returned to
// execute immediately, the rest land on self's deque (with a notify so
// other parked workers can re-steal the surplus).
func (r *wsRun) steal(self int, scratch *[]wsItem) (wsItem, bool) {
	w := len(r.deques)
	for off := 1; off < w; off++ {
		victim := r.deques[(self+off)%w]
		got := victim.stealHalf((*scratch)[:0])
		if len(got) == 0 {
			continue
		}
		r.steals.Add(1)
		if len(got) > 1 {
			r.deques[self].pushBatch(got[1:])
			r.notify(len(got) - 1)
		}
		first := got[0]
		*scratch = got[:0]
		return first, true
	}
	return wsItem{}, false
}

// worker is one scheduler goroutine: execute the local deque depth-first,
// steal when it runs dry, park when the whole frontier is empty. done is the
// run context's Done channel.
func (r *wsRun) worker(done <-chan struct{}, self int) {
	q := r.deques[self]
	parentBuf := make([]uint64, 0, 16)
	batch := make([]wsItem, 0, 16)
	stealBuf := make([]wsItem, 0, 16)
	var next wsItem
	have := false
	for {
		if !have {
			var ok bool
			if next, ok = q.popTail(); !ok {
				if next, ok = r.steal(self, &stealBuf); !ok {
					select {
					case <-done:
						return
					case <-r.wake:
						continue
					}
				}
			}
			have = true
		}
		// One cheap cancellation poll per item: a non-blocking receive on a
		// not-ready channel stays on its lock-free fast path.
		select {
		case <-done:
			return
		default:
		}
		it := next
		have = false

		// Split-work protocol: the first worker to touch a node stakes out
		// its slice counter and publishes slices 2..chunks for others to
		// steal, then burns slice 1 itself. Whichever worker's decrement
		// hits zero falls through to finalize the node; everyone else goes
		// back for more work. The counter store precedes the publish (deque
		// mutex), so slice holders always see it initialized, and the
		// decrement chain orders every slice's spin before the finalize.
		if r.splitWork > 0 {
			if r.chunks == 1 {
				spin(r.splitWork)
			} else {
				if it.chunk == 0 {
					r.remaining[it.id].Store(int32(r.chunks))
					batch = batch[:0]
					for k := int32(2); k <= int32(r.chunks); k++ {
						batch = append(batch, wsItem{id: it.id, chunk: k})
					}
					q.pushBatch(batch)
					r.notify(len(batch))
					r.markSplit(self)
					spin(r.chunkSize(1))
				} else {
					r.markSplit(self)
					spin(r.chunkSize(int(it.chunk)))
				}
				if r.remaining[it.id].Add(-1) > 0 {
					continue
				}
			}
		}
		id := it.id

		parentBuf = parentBuf[:0]
		for _, p := range r.g.Parents(id) {
			v, _ := r.slot(p)
			parentBuf = append(parentBuf, *v)
		}
		v, _ := r.slot(id)
		*v = r.f(id, parentBuf)

		// Discover the node's successors (for a static DAG, look them up) and
		// make sure the table covers them before touching their counters. An
		// expansion error — the growth bound — ends the whole run.
		children, err := r.g.Expand(id)
		if err != nil {
			r.stop(err)
			return
		}
		r.ensure(r.g.NumNodes())

		// Retire: collect every child whose last dependency this was, keep
		// the first to run next, and publish the rest in one batched push.
		batch = batch[:0]
		for _, c := range children {
			if _, pending := r.slot(c); pending.Add(-1) == 0 {
				batch = append(batch, wsItem{id: c})
			}
		}
		if len(batch) > 0 {
			next = batch[0]
			have = true
			if len(batch) > 1 {
				q.pushBatch(batch[1:])
				r.notify(len(batch) - 1)
			}
		}
		if r.retired.Add(1) == r.size.Load() {
			r.stop(nil)
			return
		}
	}
}
