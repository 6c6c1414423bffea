// Package wal is the durable run.Store implementation: an append-only
// write-ahead log of run state transitions layered over the in-memory
// MemStore. Reads are served from memory; every state transition is
// appended to the log in the order memory applied it, so a crashed dagd
// rebuilds its run history — and re-admits interrupted work — by replaying
// the log on boot. Which appends a caller waits on is listed under
// "Awaited and ordered" below; eviction is not a transition and writes
// nothing.
//
// # On-disk layout
//
// The log is sharded by run-ID hash: a data directory holds a MANIFEST file
// pinning the shard count, plus one directory per shard:
//
//	MANIFEST   {"version":1,"shards":N} — the layout contract
//	shard-00/  ... shard-<N-1>/
//
// Every record for a run lands in shardIndex(id) = fnv32a(id) mod N, so a
// run's full history lives in exactly one shard and per-shard replay order
// is a total order for that run. Shards are fully independent — each has
// its own mutex, active segment, rotation, group-commit batcher, and
// compaction cycle — so transitions for runs in different shards never
// contend. Because the routing depends on N, the manifest is load-bearing:
// opening an existing directory with a different shard count is refused
// with ErrShardCountMismatch rather than silently splitting run histories,
// and so is a directory that holds log files or shard directories but no
// manifest (the pre-shard single-stream layout, or a lost manifest).
//
// Inside a shard, files follow the original single-stream format — both are
// sequences of identically framed records:
//
//	wal-<seq>.log      active/sealed log segments, one record per transition
//	snapshot-<seq>.log compacted baseline: one record per surviving run
//
// Each record is framed as
//
//	[4-byte big-endian payload length][4-byte big-endian CRC32 (IEEE) of payload][payload]
//
// where the payload is one JSON-encoded record: an op name plus either a
// full post-transition run snapshot ("create", "begin", "finish", "cancel",
// "requeue", "put") or a bare run ID ("del", written when a submit is
// rolled back; older logs also hold one per evicted run and replay honours
// them). Carrying the full snapshot makes replay trivially idempotent — the
// last record for an ID wins — and means a reordered or partially missing
// history still converges to a valid state.
//
// # Awaited and ordered
//
//   - Awaited — the call returns only once the record is written (and, with
//     Options.Fsync, fsynced): Create (the client's 202), Finish, Cancel
//     (both the terminal record and the cancel-request), Requeue, Delete,
//     and the requeue/put records Open itself writes. These are the
//     transitions a client is told about.
//   - Ordered only — Begin. Its record is appended under the shard lock, so
//     it sits ahead of the run's finish in the same shard and the finish's
//     fsync covers it, but nothing waits on it. Losing it to a power
//     failure replays the run as queued instead of running, and Open treats
//     the two identically (requeue, Restarts+1): the loss is unobservable.
//   - Not logged — EvictTerminal. The retained history is by definition the
//     newest keep terminal runs in run.CompareFinished order. Memory
//     enforces that after every completion; evicted runs leave the disk at
//     their shard's next compaction (which snapshots memory); a replay
//     before then resurrects them, every one older than anything retained,
//     and the dispatcher's EvictTerminal in dispatch.New — before any
//     worker starts or a recovered run is re-admitted — trims them again,
//     so no reader ever sees one.
//
// Two honest edges: reopening with a larger bound can bring back runs
// evicted since the last compaction (true history, never wrong data), and
// with compaction disabled (CompactThreshold < 0) replay's working set is
// every run ever logged, not keep.
//
// # Durability: group-commit fsync
//
// With Options.Fsync on, an awaited append does not return until its record
// is on disk — but the fsync itself is batched per shard: every record that
// arrives while a sync is in flight joins the next batch and is covered by
// one fsync (the batch accumulates for at most 2ms), so K concurrent appends
// cost ~1 fsync instead of K without weakening the contract. A lone append
// is never delayed. Compaction snapshots are always fsynced before old
// segments are removed, regardless of the Fsync setting.
//
// # Compaction: off the write path
//
// When a shard accumulates CompactThreshold records it compacts in a
// background goroutine: the shard lock is held only long enough to swap in
// a fresh active segment; encoding and installing the snapshot (and
// deleting the superseded files) happen off-path, so the write path never
// stalls behind a snapshot of the store.
//
// # Replay and corruption policy
//
// Open replays every shard (concurrently): the highest-numbered snapshot,
// then every later segment in sequence order. A truncated or
// checksum-failing record in a shard's final (active-at-crash) segment is
// treated as a torn tail: that file is truncated at the last good record
// and recovery proceeds — a crash mid-append must not brick the store, and
// damage in one shard's tail never touches another shard. The same damage
// in any earlier file means real corruption (those files were sealed
// complete), and Open refuses to load rather than resurrect a partial
// history. Records that decode but fail validation (empty ID, unknown op)
// follow the same policy.
//
// # Recovery semantics
//
// After replay, terminal runs are restored as immutable history. Runs that
// were queued or running at crash time are re-admitted: their state is
// reset to queued (StartedAt cleared, Restarts incremented) and a "requeue"
// record logs the interrupted → queued transition. The recovered queued
// runs are returned from Open, oldest first, so the caller can hand them
// back to a dispatcher. A to-be-requeued run whose spec no longer passes
// validation (possible only if the log was hand-edited — CRC protects
// against accidental damage) is marked failed instead of re-executed.
package wal

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// Options configures a WAL store.
type Options struct {
	// Fsync makes every acknowledged transition durable against power loss,
	// not just process crash: an awaited append (see the package doc) does
	// not return until its record is fsynced. Off by default — the OS page cache survives SIGKILL. Syncs
	// are group-committed per shard (see groupCommit), so the cost under
	// concurrent load is ~1 fsync per batch, not per record. Compaction
	// snapshots are always fsynced before old segments are removed,
	// regardless of this setting.
	Fsync bool
	// Shards is the number of independent log shards. Zero adopts the count
	// pinned in the data dir's manifest (or DefaultShards for a fresh dir).
	// Non-zero must match an existing manifest: run IDs are routed to shards
	// by hash mod Shards, so reopening with a different count is refused
	// (ErrShardCountMismatch) rather than splitting run histories.
	Shards int
	// CompactThreshold is how many records may be appended to one shard (or
	// replayed from its segments on boot) before that shard compacts in the
	// background: all its surviving runs — mostly terminal history — are
	// written into a snapshot file and the older segments deleted. Zero
	// means 4096; negative disables compaction.
	CompactThreshold int
	// SegmentMaxBytes rotates a shard's active segment once it grows past
	// this size, bounding the largest file replay must buffer. Zero means 8MB.
	SegmentMaxBytes int64
	// Metrics receives the store's instrumentation (append/fsync volume and
	// latency, commit batch sizes, rotations, compactions), all labelled by
	// shard. Nil disables it.
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

// Store is the WAL-backed run.Store. The embedded MemStore answers every
// read; each shard's mutex serializes mutations for the runs it owns, so
// the record order on disk always matches the order transitions were
// applied in memory (without it, two racing transitions on one run could
// log in the opposite order and replay to the wrong final state) — while
// runs in different shards proceed in parallel.
type Store struct {
	dir    string
	opts   Options
	mem    *run.MemStore
	met    walInstruments
	shards []*walShard
}

var _ run.Store = (*Store)(nil)

// Open loads (or initializes) the WAL in dir and returns the store plus the
// recovered queued runs — every run that was queued or running at crash
// time, already reset to queued — oldest first, for the caller to re-admit
// to its dispatcher.
func Open(dir string, opts Options) (*Store, []run.Run, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	n, err := resolveShards(dir, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		mem:  run.NewMemStore(),
		met:  newWALInstruments(opts.Metrics),
	}
	s.shards = make([]*walShard, n)
	for i := range s.shards {
		if s.shards[i], err = newShard(s, i); err != nil {
			return nil, nil, err
		}
	}

	// Replay all shards concurrently; runs never straddle shards, so the
	// per-shard states merge by plain union.
	type shardLoad struct {
		state  *replayState
		maxSeq uint64
		err    error
	}
	loads := make([]shardLoad, n)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, maxSeq, err := loadChain(s.shards[i].dir)
			loads[i] = shardLoad{st, maxSeq, err}
		}(i)
	}
	wg.Wait()
	replayed := newReplayState()
	for i, ld := range loads {
		if ld.err != nil {
			return nil, nil, fmt.Errorf("wal: replaying %s: %w", shardDirName(i), ld.err)
		}
		s.shards[i].nextSeq = ld.maxSeq + 1
		s.shards[i].appended = len(ld.state.runs)
		for id, r := range ld.state.runs {
			replayed.runs[id] = r
		}
		for id := range ld.state.cancelRequested {
			replayed.cancelRequested[id] = true
		}
	}

	// Restore terminal history first, then convert interrupted runs.
	// repaired collects runs that recovery itself drives to a terminal
	// state (crash-orphaned cancellations, specs failing re-validation);
	// their synthesized snapshots are logged below as opPut.
	var history, interrupted, recovered, repaired []run.Run
	for _, r := range replayed.runs {
		// Records written before tenancy existed carry no attribution;
		// replay them as the catch-all default tenant so history filters
		// and re-admission both have a real tenant to point at.
		if r.Spec.Tenant == "" {
			r.Spec.Tenant = tenant.Default
		}
		if r.State.Terminal() {
			history = append(history, r)
		} else {
			interrupted = append(interrupted, r)
		}
	}
	// History goes in sorted by the order MemStore keeps it in: replay
	// hands over a map, and filing shuffled runs one sorted insert at a
	// time is O(n²) where filing them in order is O(n).
	sort.Slice(history, func(i, j int) bool { return run.CompareFinished(history[i], history[j]) < 0 })
	for _, r := range history {
		s.mem.Restore(r)
	}
	for _, r := range interrupted {
		if replayed.cancelRequested[r.ID] {
			// A cancel was acknowledged while this run was running, and the
			// process died before the dispatcher could record the terminal
			// outcome. Honoring the acknowledgement means finishing the
			// cancellation now, not re-executing the run.
			now := time.Now().Round(0)
			r.State = run.StateCancelled
			r.Error = "cancelled; the service restarted before the cancellation completed"
			r.FinishedAt = &now
			r.Result = nil
			run.RedactTerminalSpec(&r)
			repaired = append(repaired, r)
			s.mem.Restore(r)
			continue
		}
		// interrupted → queued: the process died before this run finished.
		run.RequeueSnapshot(&r)
		if err := r.Spec.Validate(); err != nil {
			// Reachable when a newer dagd tightened admission bounds over
			// specs an older one logged (or the log was hand-edited — CRC
			// catches accidental damage): never re-execute a spec admission
			// would refuse now.
			now := time.Now().Round(0)
			r.State = run.StateFailed
			r.Error = fmt.Sprintf("spec failed re-validation during crash recovery: %v", err)
			r.FinishedAt = &now
			run.RedactTerminalSpec(&r)
			repaired = append(repaired, r)
			s.mem.Restore(r)
			continue
		}
		s.mem.Restore(r)
		recovered = append(recovered, r)
	}
	sort.Slice(recovered, func(i, j int) bool { return run.CompareRuns(recovered[i], recovered[j]) < 0 })

	for _, sh := range s.shards {
		if err := sh.openSegmentLocked(); err != nil {
			for _, sh2 := range s.shards {
				if sh2.seg != nil {
					sh2.seg.Close()
				}
			}
			return nil, nil, err
		}
	}
	// Committers start only after every shard has an active segment; sh.gc
	// is assigned together with its goroutine so close never waits on a
	// committer that was never started.
	if opts.Fsync {
		for _, sh := range s.shards {
			sh.gc = newGroupCommit()
			go sh.gc.run(sh)
		}
	}

	// Log the recovery transitions themselves, so a second crash before the
	// next compaction still replays to the re-admitted (or repaired) state.
	logRecovery := func(rec record) error {
		sh := s.shardFor(rec.Run.ID)
		sh.mu.Lock()
		ticket, err := sh.appendLocked(rec)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		return sh.waitDurable(ticket)
	}
	for _, r := range recovered {
		r := r
		if err := logRecovery(record{Op: opRequeue, Run: &r}); err != nil {
			s.Close()
			return nil, nil, err
		}
	}
	for _, r := range repaired {
		r := r
		if err := logRecovery(record{Op: opPut, Run: &r}); err != nil {
			s.Close()
			return nil, nil, err
		}
	}
	return s, recovered, nil
}

// shardFor routes a run ID to its owning shard.
func (s *Store) shardFor(id string) *walShard {
	return s.shards[shardIndex(id, len(s.shards))]
}

// Shards returns the store's shard count (pinned by the data dir manifest).
func (s *Store) Shards() int { return len(s.shards) }

// Create registers a queued run, logging it before the ID escapes. If the
// log write or its sync fails the in-memory entry is rolled back, so a run
// the WAL never heard of can never be observed.
func (s *Store) Create(spec run.Spec) (run.Run, error) {
	r, err := s.mem.Create(spec)
	if err != nil {
		return run.Run{}, err
	}
	// The ID is fresh and unpublished, so nothing can race this run's log
	// order; the shard lock is needed only for the append itself.
	sh := s.shardFor(r.ID)
	sh.mu.Lock()
	ticket, err := sh.appendLocked(record{Op: opCreate, Run: &r})
	sh.mu.Unlock()
	if err == nil {
		err = sh.waitDurable(ticket)
	}
	if err != nil {
		s.mem.Delete(r.ID)
		return run.Run{}, err
	}
	return r, nil
}

// Begin transitions queued → running (see run.Store). The transition is
// applied in memory and appended under the run's shard lock, so the record
// lands ahead of the run's finish, whose group commit covers it; nothing
// waits on it. A begin record lost to power failure replays the run as
// queued, which Open re-admits exactly as it does a running one — no
// client was ever told otherwise. An append failure is returned but the
// in-memory transition stands — memory is the source of truth while the
// process lives, and the next compaction re-syncs the log.
func (s *Store) Begin(id string, dispatchedAt time.Time, worker string, cancel context.CancelFunc) (run.Run, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, err := s.mem.Begin(id, dispatchedAt, worker, cancel)
	if err != nil {
		return r, err
	}
	_, err = sh.appendLocked(record{Op: opBegin, Run: &r})
	return r, err
}

// Requeue moves a running run back to queued (see run.Store) — the live
// lease-expiry path. The same opRequeue record crash recovery writes is
// appended, carrying the post-requeue snapshot (Restarts incremented,
// execution fields cleared), so a crash after a lease expiry replays the
// run as queued, not running. Any cancel-request flag is dropped with the
// lease: a cancel acknowledged against the dead worker's attempt is
// superseded by the re-dispatch (callers expire cancel-requested leases as
// cancelled instead of requeueing them).
func (s *Store) Requeue(id string) (run.Run, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	r, err := s.mem.Requeue(id)
	if err != nil {
		sh.mu.Unlock()
		return r, err
	}
	delete(sh.cancelReq, id)
	ticket, err := sh.appendLocked(record{Op: opRequeue, Run: &r})
	sh.mu.Unlock()
	if err != nil {
		return r, err
	}
	return r, sh.waitDurable(ticket)
}

// Finish transitions running → terminal (see run.Store).
func (s *Store) Finish(id string, result *run.Result, runErr error) (run.Run, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	r, err := s.mem.Finish(id, result, runErr)
	if err != nil {
		sh.mu.Unlock()
		return r, err
	}
	delete(sh.cancelReq, id)
	ticket, err := sh.appendLocked(record{Op: opFinish, Run: &r})
	sh.mu.Unlock()
	if err != nil {
		return r, err
	}
	return r, sh.waitDurable(ticket)
}

// Cancel requests cancellation (see run.Store). A queued → cancelled
// transition is logged terminally; a cancel acknowledged on a running run
// is logged as a cancel-request record, so that if the process dies before
// the dispatcher records the terminal outcome, recovery finishes the
// cancellation instead of resurrecting and re-executing an acknowledged-
// cancelled run.
func (s *Store) Cancel(id string) (run.Run, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	r, err := s.mem.Cancel(id)
	if err != nil {
		sh.mu.Unlock()
		return r, err
	}
	var rec record
	switch {
	case r.State == run.StateCancelled && r.StartedAt == nil:
		rec = record{Op: opCancel, Run: &r}
	case r.State == run.StateRunning:
		rec = record{Op: opCancelReq, Run: &r}
		sh.cancelReq[id] = true
	default:
		sh.mu.Unlock()
		return r, nil
	}
	ticket, err := sh.appendLocked(rec)
	sh.mu.Unlock()
	if err != nil {
		return r, err
	}
	return r, sh.waitDurable(ticket)
}

// Delete removes a run entirely (see run.Store).
func (s *Store) Delete(id string) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, err := s.mem.Get(id); err != nil {
		sh.mu.Unlock()
		return nil // nothing tracked, nothing to log
	}
	if err := s.mem.Delete(id); err != nil {
		sh.mu.Unlock()
		return err
	}
	delete(sh.cancelReq, id)
	ticket, err := sh.appendLocked(record{Op: opDel, ID: id})
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	return sh.waitDurable(ticket)
}

// EvictTerminal evicts oldest-finished terminal runs past keep (see
// run.Store) and writes nothing: the retained history is by definition the
// newest keep terminal runs in run.CompareFinished order, so the log needs
// no record of who fell off the end. Victims leave the disk at their
// shard's next compaction; a replay before that resurrects them — always
// older than everything retained — and the caller's first EvictTerminal
// after Open trims them again.
func (s *Store) EvictTerminal(keep int) int { return s.mem.EvictTerminal(keep) }

// Get returns a snapshot of one run (read-only; served from memory).
func (s *Store) Get(id string) (run.Run, error) { return s.mem.Get(id) }

// List returns all runs in (CreatedAt, ID) order (read-only).
func (s *Store) List() []run.Run { return s.mem.List() }

// Len returns the number of tracked runs (read-only).
func (s *Store) Len() int { return s.mem.Len() }

// CountByState returns per-state run counts (read-only).
func (s *Store) CountByState() map[run.State]int { return s.mem.CountByState() }

// Await blocks until the run is terminal or ctx is done (read-only; parks
// on the in-memory done channel, no log involvement).
func (s *Store) Await(ctx context.Context, id string) (run.Run, error) {
	return s.mem.Await(ctx, id)
}

// Close seals every shard: stops the committers (draining a final batch),
// waits out in-flight compactions, and syncs + closes the active segments.
// The store must not be used afterwards.
func (s *Store) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
