package wal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// fuzzSegment builds a valid segment: create/begin/finish for one run (the
// begin record as older versions wrote it) plus a create for a second, the
// kind of tail a crash leaves behind.
func fuzzSegment(t interface{ Fatalf(string, ...any) }) []byte {
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	started := now.Add(time.Second)
	finishedAt := now.Add(2 * time.Second)
	// Stamped, so the trailing queued run recovers as queued, not as a
	// retired gen_version's failure.
	spec := run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2, GenVersion: gen.CurrentVersion}}
	a := run.Run{ID: fuzzRunA, Spec: spec, State: run.StateQueued, CreatedAt: now}
	var buf []byte
	var err error
	appendRec := func(rec record) {
		if buf, err = encodeFrame(buf, rec); err != nil {
			t.Fatalf("encodeFrame: %v", err)
		}
	}
	appendRec(record{Op: run.OpCreate, Run: &a})
	a.State = run.StateRunning
	a.StartedAt = &started
	appendRec(record{Op: run.OpBegin, Run: &a})
	a.State = run.StateSucceeded
	a.FinishedAt = &finishedAt
	a.Result = &run.Result{Nodes: 8, Match: true}
	appendRec(record{Op: run.OpFinish, Run: &a})
	b := run.Run{ID: fuzzRunB, Spec: spec, State: run.StateQueued, CreatedAt: now.Add(3 * time.Second)}
	appendRec(record{Op: run.OpCreate, Run: &b})
	return buf
}

// fuzzBystander builds a one-record snapshot holding a terminal run that
// the fuzzed segment never mentions — the canary that damage to a later
// file must never touch.
func fuzzBystander(t interface{ Fatalf(string, ...any) }) []byte {
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	finishedAt := now.Add(time.Second)
	spec := run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2}}
	c := run.Run{
		ID: fuzzRunOther, Spec: spec, State: run.StateSucceeded,
		CreatedAt: now, FinishedAt: &finishedAt,
		Result: &run.Result{Nodes: 8, Match: true},
	}
	buf, err := encodeFrame(nil, record{Op: run.OpPut, Run: &c})
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}
	return buf
}

// The fuzz layout's run IDs: fuzzRunA and fuzzRunB are in the fuzzed
// segment, fuzzRunOther in the snapshot ahead of it.
const (
	fuzzRunA     = "r000001-aaaaaaaa"
	fuzzRunB     = "r000003-cccccccc"
	fuzzRunOther = "r000002-bbbbbbbb"
)

// FuzzWALReplay throws arbitrary bytes at the replay path, both as the
// log's final (active-at-crash) segment and as a sealed one shadowed by a
// valid later segment, behind a sealed snapshot holding a bystander run,
// and pins the corruption contract:
//
//   - replay never panics;
//   - a damaged final segment is safely truncated: Open succeeds, every
//     surviving run is structurally sound, and the bystander run in the
//     snapshot is untouched;
//   - a damaged sealed segment is rejected: Open either refuses (the
//     common case) or — if the mutation kept every frame intact — loads
//     only structurally sound runs. Corrupt bytes never resurrect a run
//     with an empty ID, an unknown state, or a half-applied transition.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzSegment(f)
	f.Add(valid, true)
	f.Add(valid, false)
	// Bit flips at interesting offsets: length prefix, CRC, payload.
	for _, off := range []int{0, 2, 5, 9, 20, len(valid) / 2, len(valid) - 1} {
		mutated := append([]byte(nil), valid...)
		mutated[off] ^= 0x40
		f.Add(mutated, true)
		f.Add(mutated, false)
	}
	// Truncations: mid-header and mid-payload.
	f.Add(valid[:3], true)
	f.Add(valid[:len(valid)-5], true)
	f.Add(valid[:len(valid)-5], false)
	f.Add([]byte{}, true)
	f.Add([]byte("not a wal at all"), false)

	f.Fuzz(func(t *testing.T, data []byte, final bool) {
		dir := t.TempDir()
		logDir := plantSegment(t, dir, 2, data)
		if err := os.WriteFile(filepath.Join(logDir, snapshotName(1)), fuzzBystander(t), 0o644); err != nil {
			t.Fatal(err)
		}
		if !final {
			// A later, valid segment makes the fuzzed file a sealed one.
			plantSegment(t, dir, 3, fuzzSegment(t))
		}

		s, recovered, err := Open(dir, Options{})
		if err != nil {
			if final {
				// The final segment's damage must always be absorbed by
				// truncation, never refused.
				t.Fatalf("Open rejected a final-segment log instead of truncating: %v", err)
			}
			return // sealed-segment corruption: refusal is the contract
		}
		defer s.Close()

		// Damage never reaches back into an earlier file: the bystander run
		// replays intact no matter what the fuzzed segment held.
		if got, err := s.Get(fuzzRunOther); err != nil || got.State != run.StateSucceeded {
			t.Fatalf("bystander run in the sealed snapshot = %+v, %v; want succeeded", got, err)
		}

		// Whatever survived must be structurally sound.
		for _, r := range s.List() {
			if r.ID == "" {
				t.Fatal("replay resurrected a run with an empty ID")
			}
			if r.State.String() == "" || r.CreatedAt.IsZero() && r.State.Terminal() && r.FinishedAt == nil {
				t.Fatalf("replay resurrected malformed run %+v", r)
			}
			// After recovery no run may still claim to be running: it
			// either replayed terminal or was re-admitted as queued.
			if r.State == run.StateRunning {
				t.Fatalf("run %s still running after recovery", r.ID)
			}
		}
		for _, r := range recovered {
			if r.State != run.StateQueued || r.Restarts < 1 {
				t.Fatalf("recovered run %+v not re-admitted as queued", r)
			}
			// Re-admitted specs must pass the same admission check the API
			// enforces — recovery must not smuggle invalid work to a
			// dispatcher.
			if err := r.Spec.Validate(); err != nil {
				t.Fatalf("recovered run %s has unvalidatable spec: %v", r.ID, err)
			}
		}
	})
}

// storeProgram ops: each step is an (op, arg) byte pair; arg picks one of
// the runs created so far, or EvictTerminal's keep.
const (
	progCreate = iota
	progBegin
	progCancel
	progRequeue
	progEvict
	progSucceed
	progFail
	progCancelled
	progRace      // Finish, Requeue and Cancel at once on one running run
	progBeginRace // Begin, which logs nothing, and Cancel at once on one queued run
	progOps
)

// FuzzStoreReplay drives one WAL-backed store with a byte program over at
// most 8 runs — its first byte picks fsync, compaction every few records
// and small segments — then closes it, reopens the data dir and checks
// recovery against what memory held at Close:
//
//   - every run memory held replays as Recover derives it: terminal runs
//     identical, queued and running ones requeued with Restarts+1, or
//     cancelled if a cancel was acknowledged while they ran;
//   - an evicted run that reappears is older than every retained terminal
//     run, and EvictTerminal down to the retained count removes exactly
//     those.
//
// The race steps are the store's ordering invariant under load: the log
// holds the transitions in the order memory applied them, or a replay
// contradicts the live store — Begin included, which applies beside the
// logged transitions without their write lock.
func FuzzStoreReplay(f *testing.F) {
	// TestRecovery: succeeded, failed, cancelled while queued, queued, running.
	f.Add([]byte{0, progCreate, 0, progBegin, 0, progSucceed, 0, progCreate, 0, progBegin, 1, progFail, 1,
		progCreate, 0, progCancel, 2, progCreate, 0, progCreate, 0, progBegin, 4})
	// TestCancelRequestedSurvivesCrash: a cancel acknowledged while running.
	f.Add([]byte{0, progCreate, 0, progBegin, 0, progCancel, 0})
	f.Add([]byte{3, progCreate, 0, progBegin, 0, progCancel, 0, progCreate, 0, progBegin, 1, progCancelled, 1})
	// A lease expiry after an acknowledged cancel finishes the run cancelled.
	f.Add([]byte{0, progCreate, 0, progBegin, 0, progCancel, 0, progRequeue, 0})
	// Races, a lease expiry and retention, across compaction swaps and
	// rotations with fsync on.
	f.Add([]byte{7, progCreate, 0, progCreate, 0, progCreate, 0, progCreate, 0, progBegin, 0, progBegin, 1,
		progRace, 0, progRequeue, 1, progBegin, 2, progSucceed, 2, progEvict, 1,
		progBegin, 1, progRace, 1, progCreate, 0, progSucceed, 1, progEvict, 2, progCreate, 0, progBegin, 5})
	// Begin racing a cancel, then the winner's follow-up.
	f.Add([]byte{1, progCreate, 0, progCreate, 0, progBeginRace, 0, progBeginRace, 1, progCancelled, 0,
		progRequeue, 1, progBegin, 1, progSucceed, 1})

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		opts := Options{Fsync: prog[0]&1 != 0, CompactThreshold: -1}
		if prog[0]&2 != 0 {
			opts.CompactThreshold = 6
		}
		if prog[0]&4 != 0 {
			opts.SegmentMaxBytes = 1024
		}
		dir := t.TempDir()
		s, _, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		refused := func(err error) {
			t.Helper()
			for _, want := range []error{run.ErrNotFound, run.ErrNotQueued, run.ErrNotRunning, run.ErrTerminal} {
				if err == nil || errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("store failed: %v", err)
		}
		var ids []string
		evicted, cancelAcked := map[string]bool{}, map[string]bool{}
		for step := 1; step+1 < len(prog) && step < 128; step += 2 {
			op, arg := int(prog[step])%progOps, int(prog[step+1])
			switch op {
			case progCreate:
				if len(ids) < 8 {
					r, err := s.Create(tinySpec())
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, r.ID)
				}
				continue
			case progEvict:
				before := s.List()
				s.EvictTerminal(arg%3 + 1)
				for _, r := range before {
					if _, err := s.Get(r.ID); err != nil {
						evicted[r.ID] = true
					}
				}
				continue
			}
			if len(ids) == 0 {
				continue
			}
			id := ids[arg%len(ids)]
			switch op {
			case progBegin:
				_, err := s.Begin(id, time.Now(), "w1", func() {})
				refused(err)
			case progCancel:
				r, err := s.Cancel(id)
				refused(err)
				if err == nil && r.State == run.StateRunning {
					cancelAcked[id] = true
				}
			case progRequeue:
				r, err := s.Requeue(id)
				refused(err)
				if err == nil {
					// An acknowledged cancel ends the run; nothing else does.
					if cancelAcked[id] != (r.State == run.StateCancelled) {
						t.Fatalf("Requeue of %s with cancel acknowledged %v = %s", id, cancelAcked[id], r.State)
					}
					delete(cancelAcked, id)
				}
			case progSucceed, progFail, progCancelled:
				runErr := map[int]error{progSucceed: nil, progFail: errors.New("boom"), progCancelled: context.Canceled}[op]
				_, err := s.Finish(id, &run.Result{Nodes: 12, Match: runErr == nil}, runErr)
				refused(err)
			case progRace:
				if r, err := s.Get(id); err != nil || r.State != run.StateRunning {
					continue
				}
				var wg sync.WaitGroup
				var finishErr, requeueErr, cancelErr error
				wg.Add(3)
				go func() { defer wg.Done(); _, finishErr = s.Finish(id, &run.Result{Nodes: 12, Match: true}, nil) }()
				go func() { defer wg.Done(); _, requeueErr = s.Requeue(id) }()
				go func() { defer wg.Done(); _, cancelErr = s.Cancel(id) }()
				wg.Wait()
				refused(finishErr)
				refused(requeueErr)
				refused(cancelErr)
				if (finishErr == nil) == (requeueErr == nil) {
					t.Fatalf("Finish = %v, Requeue = %v: exactly one may take a running run", finishErr, requeueErr)
				}
				// Finished, requeued, or — after a cancel that came first —
				// cancelled by the requeue: not running either way.
				delete(cancelAcked, id)
			case progBeginRace:
				if r, err := s.Get(id); err != nil || r.State != run.StateQueued {
					continue
				}
				var wg sync.WaitGroup
				var beginErr, cancelErr error
				var cancelled run.Run
				wg.Add(2)
				go func() { defer wg.Done(); _, beginErr = s.Begin(id, time.Now(), "w1", func() {}) }()
				go func() { defer wg.Done(); cancelled, cancelErr = s.Cancel(id) }()
				wg.Wait()
				refused(beginErr)
				if cancelErr != nil {
					t.Fatalf("Cancel of a queued or running run: %v", cancelErr)
				}
				// Cancelled while queued, or acknowledged on the running run.
				if cancelled.State == run.StateRunning {
					cancelAcked[id] = true
				}
			}
		}
		live := s.List()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, recovered, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		requeued := map[string]bool{}
		for _, r := range recovered {
			requeued[r.ID] = true
		}
		held := map[string]bool{}
		for _, was := range live {
			held[was.ID] = true
			got, err := s2.Get(was.ID)
			if err != nil {
				t.Fatalf("run %s (%s) lost across the restart", was.ID, was.State)
			}
			switch {
			case was.State.Terminal():
				if a, b := snapshotJSON(t, was), snapshotJSON(t, got); a != b {
					t.Errorf("terminal run changed across the restart:\n was %s\n got %s", a, b)
				}
			case was.State == run.StateRunning && cancelAcked[was.ID]:
				if got.State != run.StateCancelled || got.FinishedAt == nil || got.Error == "" || requeued[was.ID] {
					t.Errorf("run %s cancelled while running recovered as %+v, want cancelled", was.ID, got)
				}
			default:
				want := was
				want.State, want.Restarts = run.StateQueued, was.Restarts+1
				want.DispatchedAt, want.StartedAt, want.Worker, want.Result, want.Error = nil, nil, "", nil, ""
				if a, b := snapshotJSON(t, want), snapshotJSON(t, got); a != b || !requeued[was.ID] {
					t.Errorf("interrupted run not requeued (re-admitted: %v):\n want %s\n got  %s", requeued[was.ID], a, b)
				}
			}
		}
		var retained, back []run.Run
		for _, r := range s2.List() {
			switch {
			case held[r.ID]:
				if r.State.Terminal() {
					retained = append(retained, r)
				}
			case !evicted[r.ID]:
				t.Fatalf("run %s (%s) reappeared that memory never evicted", r.ID, r.State)
			default:
				back = append(back, r)
			}
		}
		for _, e := range back {
			for _, r := range retained {
				if run.CompareFinished(e, r) >= 0 {
					t.Fatalf("evicted run %s (finished %v) reappeared no older than retained %s (finished %v)", e.ID, e.FinishedAt, r.ID, r.FinishedAt)
				}
			}
		}
		if len(retained) == 0 {
			return // EvictTerminal(0) keeps everything: nothing to trim to
		}
		if n := s2.EvictTerminal(len(retained)); n != len(back) {
			t.Fatalf("EvictTerminal(%d) = %d, want the %d that reappeared", len(retained), n, len(back))
		}
		if s2.Len() != len(live) {
			t.Fatalf("%d runs after the trim, memory held %d", s2.Len(), len(live))
		}
	})
}
