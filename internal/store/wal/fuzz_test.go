package wal

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// fuzzSegment builds a valid segment: create/begin/finish for one run plus
// a create for a second, the kind of tail a crash leaves behind.
func fuzzSegment(t interface{ Fatalf(string, ...any) }) []byte {
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	started := now.Add(time.Second)
	finishedAt := now.Add(2 * time.Second)
	spec := run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2}}
	a := run.Run{ID: fuzzRunA, Spec: spec, State: run.StateQueued, CreatedAt: now}
	var buf []byte
	var err error
	appendRec := func(rec record) {
		if buf, err = encodeFrame(buf, rec); err != nil {
			t.Fatalf("encodeFrame: %v", err)
		}
	}
	appendRec(record{Op: opCreate, Run: &a})
	a.State = run.StateRunning
	a.StartedAt = &started
	appendRec(record{Op: opBegin, Run: &a})
	a.State = run.StateSucceeded
	a.FinishedAt = &finishedAt
	a.Result = &run.Result{Nodes: 8, Match: true}
	appendRec(record{Op: opFinish, Run: &a})
	b := run.Run{ID: fuzzRunB, Spec: spec, State: run.StateQueued, CreatedAt: now.Add(3 * time.Second)}
	appendRec(record{Op: opCreate, Run: &b})
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
	buf, err := encodeFrame(nil, record{Op: opPut, Run: &c})
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
		logDir := plantSegment(t, dir, 1, 0, 2, data)
		if err := os.WriteFile(filepath.Join(logDir, snapshotName(1)), fuzzBystander(t), 0o644); err != nil {
			t.Fatal(err)
		}
		if !final {
			// A later, valid segment makes the fuzzed file a sealed one.
			plantSegment(t, dir, 1, 0, 3, fuzzSegment(t))
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
