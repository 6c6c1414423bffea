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
// Nothing a worker does per node writes a cache line every worker shares:
// the counters it touches belong to the node's children, and the count of
// retired nodes is a per-worker tally, added to the run's shared total only
// when the worker runs dry (its deque is empty), and on every exit. Every
// retired node is below the table's size, so the flush that makes the total
// equal the size is the one that completes the run; a worker flushes before
// it steals or parks, so the last node's worker makes that flush when it
// runs dry.
//
// Memory-model note: a child's parents' values are always visible to the
// worker that executes it.
//   - The flat part of the counter table is filled with plain stores before
//     the first worker starts (the go statement, or the call itself for a
//     one-worker run, orders them before every worker's atomics); segment
//     counters are stored atomically in ensure, before the size that covers
//     them is published.
//   - A parent takes ownership of a child with an atomic load that reads 1,
//     or else with the decrement that reaches zero. Every other parent wrote
//     its value before its own decrement, and a load that reads 1 has
//     observed all of those decrements (the caller is the last parent), so in
//     both cases Go's sequentially-consistent atomics order every parent's
//     write before the owner's next step. A single-parent child is therefore
//     owned with one load and no read-modify-write.
//   - The owner publishes the child either by keeping it (same goroutine,
//     program order) or under the deque mutex; acquiring that mutex (locally
//     or via steal) establishes happens-before from every parent's write to
//     the child's read, and runs stay clean under the race detector.

// wsItem is one deque entry: a whole node, or, when split is set, one slice
// of a split node's emulated work (the Nabbit UseParallelNodes mode, see
// slice).
type wsItem struct {
	id    dag.NodeID
	split *splitNode
}

// splitNode is a split node's record while its slices run (see slice): the
// count of slices still outstanding, which every slice item of the node
// points at.
type splitNode struct{ left atomic.Int32 }

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
// behind Executor.Run. It executes a DynamicGraph; a built *dag.DAG is the
// graph whose Expand never discovers anything, so its whole node table is
// the flat part and ensure never grows it.
type wsRun struct {
	g DynamicGraph
	f Compute

	// Node table. The nodes known when the run starts sit in the flat
	// values/pending slices (values doubles as the result when nothing grew).
	// Nodes discovered later live in segments reached through dir, an
	// immutable slice that growth replaces wholesale: growers serialize on
	// growMu, readers take no lock. size is published last, after the
	// segments exist and the new counters are initialized. Once workers run,
	// every counter is accessed atomically; pending is a plain []int32 so
	// that run can fill it with plain stores (an atomic store is a locked
	// instruction, paid per node).
	values  []uint64
	pending []int32
	dir     atomic.Pointer[[]segment]
	growMu  sync.Mutex
	size    atomic.Int64 // nodes covered by the table so far

	deques []*wsDeque
	// wake is a token semaphore for parked workers: every publish of ready
	// work sends up to one token per item (non-blocking, capacity = worker
	// count), so a worker that scanned every deque empty and blocked is
	// guaranteed a wakeup for work published after its scan. A one-worker
	// run has none: its worker has no one to wait for.
	wake chan struct{}
	// stop ends the run: with nil once every covered node has retired, with
	// the expansion error if the graph fails to grow, with the caller's
	// cause once the caller's ctx is done. It cancels the context whose
	// channel parked workers wait on, then sets halted, which a working
	// worker polls once per item. The poll is one load: a non-blocking
	// receive on the channel cost about a third of a chain node at work=0.
	stop    func(cause error)
	halted  atomic.Bool
	retired atomic.Int64 // the workers' flushed tallies
	steals  atomic.Int64 // successful stealHalf operations this run

	// Split work (Nabbit UseParallelNodes). When splitWork > 0 the Compute
	// hook is pure (no spin folded in) and the scheduler burns splitWork
	// spin iterations per node itself, sliced into chunks pieces that idle
	// workers can steal. The state of a node being split is its splitNode
	// record; the run holds none per node.
	splitWork int
	chunks    int
	splitMask atomic.Uint64 // bit per worker (of the first 64) that ran a split slice
}

// run executes f over every node g has and discovers, on a pool of workers
// goroutines, and returns the per-node values indexed by NodeID. One worker
// runs on the caller's goroutine. The node table comes from the free lists
// and goes back to them when run returns, all but the values it hands out.
// No slot is cleared: a counter is stored before any worker reads it, and a
// value is written before any child reads it.
func (r *wsRun) run(ctx context.Context, workers int) ([]uint64, error) {
	n := r.g.NumNodes()
	r.values = nodeValues.Get(n)
	r.pending = counters.Get(n)
	defer r.release()
	r.size.Store(int64(n))
	r.deques = make([]*wsDeque, workers)
	for i := range r.deques {
		r.deques[i] = new(wsDeque)
	}
	if workers > 1 {
		r.wake = make(chan struct{}, workers)
	}
	// Seed the sources round-robin across the deques so workers start with
	// disjoint work. Workers have not started yet, so plain stores and
	// appends are fine.
	static := r.static()
	seeded := 0
	for v := 0; v < n; v++ {
		var deg int
		if static != nil {
			deg = static.InDegree(dag.NodeID(v))
		} else {
			deg = len(r.g.Parents(dag.NodeID(v)))
		}
		r.pending[v] = int32(deg)
		if deg == 0 {
			q := r.deques[seeded%workers]
			q.buf = append(q.buf, wsItem{id: dag.NodeID(v)})
			seeded++
		}
	}
	if seeded == 0 {
		return r.results(n), nil
	}

	parent := ctx
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	// The cause is recorded before the flag is set, so a worker that saw the
	// flag and returned leaves the cause for run to report.
	r.stop = func(cause error) {
		cancel(cause)
		r.halted.Store(true)
	}
	// The caller's cancellation stops the run the same way. AfterFunc calls
	// it on a goroutine of its own, so a ctx that is done already halts the
	// workers here, before they start.
	defer context.AfterFunc(parent, func() { r.stop(context.Cause(parent)) })()
	if ctx.Err() != nil {
		r.halted.Store(true)
	}
	if workers == 1 {
		r.worker(ctx.Done(), 0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				r.worker(ctx.Done(), self)
			}(w)
		}
		wg.Wait()
	}
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

// notify wakes up to k parked workers, dropping tokens once the semaphore
// is full (at that point every worker already has a pending wakeup).
func (r *wsRun) notify(k int) {
	if r.wake == nil {
		return
	}
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
	static := r.static()
	// A discovered graph's values are segmented, so its hook cannot read
	// them in place: the worker gathers a node's parents' values into
	// gathered and hands the hook index, whose slot i holds i, as the parent
	// list. This is the one gather left; a static graph's r.values covers
	// every node, and its hook reads them there.
	var gathered []uint64
	var index []dag.NodeID
	batch := make([]wsItem, 0, 16)
	stealBuf := make([]wsItem, 0, 16)
	var tally int64 // nodes retired since this worker's last flush
	var sp splitter
	defer func() {
		r.retired.Add(tally)
		if sp.ran && self < 64 {
			r.splitMask.Add(1 << self) // once per worker, so Add sets one bit
		}
	}()
	var next wsItem
	have := false
	for {
		if !have {
			var ok bool
			if next, ok = q.popTail(); !ok {
				if tally > 0 {
					total := r.retired.Add(tally)
					tally = 0
					if total == r.size.Load() {
						r.stop(nil)
						return
					}
				}
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
		if r.halted.Load() {
			return
		}
		it := next
		have = false

		if r.splitWork > 0 && !r.slice(it, q, &sp) {
			continue
		}
		id := it.id

		// Run the node, then discover its successors (for a static DAG, look
		// them up) and make sure the table covers them before touching their
		// counters. An expansion error — the growth bound — ends the whole
		// run.
		var children []dag.NodeID
		if static != nil {
			r.values[id] = r.f(id, static.Parents(id), r.values)
			children = static.Children(id)
		} else {
			gathered = gathered[:0]
			for _, p := range r.g.Parents(id) {
				gathered = append(gathered, *r.value(p))
			}
			for k := len(index); k < len(gathered); k++ {
				index = append(index, dag.NodeID(k))
			}
			*r.value(id) = r.f(id, index[:len(gathered)], gathered)
			var err error
			if children, err = r.g.Expand(id); err != nil {
				r.stop(err)
				return
			}
			r.ensure(r.g.NumNodes())
		}

		// Retire: collect every child whose last dependency this was (see
		// the memory-model note), keep the first to run next, and publish
		// the rest in one batched push.
		batch = batch[:0]
		for _, c := range children {
			if p := r.counter(c); atomic.LoadInt32(p) == 1 || atomic.AddInt32(p, -1) == 0 {
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
		tally++
	}
}

// splitter is one worker's side of the split-work protocol: the records it
// may reuse, its publish buffer, and whether it has run a slice.
type splitter struct {
	free []*splitNode
	buf  []wsItem
	ran  bool
}

// slice burns one item's share of a split run's per-node work and reports
// whether the item's node is ready to finalize. The first worker to take a
// node takes a record from its free list, sets the slice count and
// publishes slices 2..chunks for others to steal, then burns slice 1 (which
// carries the remainder) itself. Whichever worker's decrement hits zero
// finalizes the node and keeps the record; every other slice's worker goes
// back for more work. The count's store precedes the publish (deque mutex),
// so slice holders always see it set, and the decrement chain orders every
// slice's spin before the finalize.
func (r *wsRun) slice(it wsItem, q *wsDeque, sp *splitter) bool {
	if r.chunks == 1 {
		spin(r.splitWork)
		return true
	}
	s, size := it.split, r.splitWork/r.chunks
	if s == nil {
		if k := len(sp.free); k > 0 {
			s, sp.free = sp.free[k-1], sp.free[:k-1]
		} else {
			s = new(splitNode)
		}
		s.left.Store(int32(r.chunks))
		sp.buf = sp.buf[:0]
		for k := 1; k < r.chunks; k++ {
			sp.buf = append(sp.buf, wsItem{id: it.id, split: s})
		}
		q.pushBatch(sp.buf)
		r.notify(len(sp.buf))
		size += r.splitWork % r.chunks
	}
	sp.ran = true
	spin(size)
	if s.left.Add(-1) > 0 {
		return false
	}
	sp.free = append(sp.free, s)
	return true
}
