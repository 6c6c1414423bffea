package wal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// TestRecoveryFailsRevalidationTerminally crafts a log whose queued run no
// longer passes Spec.Validate (as happens when a newer dagd tightens
// admission bounds over specs an older one logged) and pins the repair: the
// run comes back failed — a complete terminal snapshot with FinishedAt set
// so retention can evict it — rather than re-executing or lingering
// half-terminal forever.
func TestRecoveryFailsRevalidationTerminally(t *testing.T) {
	dir := t.TempDir()
	invalid := run.Run{
		ID: "r000001-deadbeef",
		// A random-shape spec with nodes below the admission minimum:
		// impossible to submit through Validate, so it models a record
		// from a binary with laxer bounds.
		Spec:      run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 1}},
		State:     run.StateQueued,
		CreatedAt: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
	}
	buf, err := encodeFrame(nil, record{Op: run.OpCreate, Run: &invalid})
	if err != nil {
		t.Fatal(err)
	}
	plantSegment(t, dir, 1, buf)

	s, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if len(recovered) != 0 {
		t.Fatalf("unvalidatable run was re-admitted: %+v", recovered)
	}
	got, err := s.Get(invalid.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != run.StateFailed {
		t.Fatalf("state = %s, want failed", got.State)
	}
	if got.FinishedAt == nil {
		t.Error("repaired run has no FinishedAt — it could never be evicted")
	}
	if got.Error == "" {
		t.Error("repaired run carries no explanation")
	}
	// Being a complete terminal snapshot, it must be evictable.
	if n := s.EvictTerminal(0); n != 0 {
		t.Errorf("EvictTerminal(0) = %d, want 0 (unlimited)", n)
	}
	r2, err := s.Create(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(r2.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(r2.ID, &run.Result{Match: true}, nil); err != nil {
		t.Fatal(err)
	}
	if n := s.EvictTerminal(1); n != 1 {
		t.Errorf("EvictTerminal(1) = %d, want 1 (the repaired run evicts first)", n)
	}
}

// plantSegment writes frames as segment seq of the data dir's log, and
// returns the log's directory.
func plantSegment(t *testing.T, dir string, seq uint64, frames []byte) string {
	t.Helper()
	if err := writeManifest(dir); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, logDirName)
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, segmentName(seq)), frames, 0o644); err != nil {
		t.Fatal(err)
	}
	return sdir
}

// TestUnversionedSpecReplaysTerminalFailsInterrupted plants records
// written before gen_version existed — JSON by hand, framed by hand — and
// pins what retiring version 1 means for them. Recovery reads an absent
// version as 1, the generator that drew them. A terminal run never
// regenerates, so it replays unchanged, result and all. An interrupted one
// would have to, and version 1 is gone: it fails closed as a terminal repair
// rather than re-executing as a different graph, and so does an interrupted
// run logged under 1 explicitly, whatever its shape.
func TestUnversionedSpecReplaysTerminalFailsInterrupted(t *testing.T) {
	dir := t.TempDir()
	const done, queued, running = "r000001-0ddba11a", "r000002-0ddba11b", "r000003-0ddba11c"
	records := []string{
		`{"op":"finish","run":{"id":"` + done + `","spec":{"shape":"random","nodes":300,"p":0.02,"seed":5,"workload":"pathcount","tenant":"default"},"state":"succeeded","result":{"workload":"pathcount","nodes":300,"edges":1044,"depth":31,"workers":2,"sink_paths_mod64":123456789,"match":true,"serial_ms":0.2,"parallel_ms":0.3,"speedup":0.67},"created_at":"2026-07-01T12:00:00Z","dispatched_at":"2026-07-01T12:00:01Z","started_at":"2026-07-01T12:00:01Z","finished_at":"2026-07-01T12:00:02Z"}}`,
		`{"op":"create","run":{"id":"` + queued + `","spec":{"shape":"random","nodes":300,"p":0.02,"seed":5,"workload":"pathcount","tenant":"default"},"state":"queued","created_at":"2026-07-01T12:00:03Z"}}`,
		`{"op":"begin","run":{"id":"` + running + `","spec":{"shape":"pipeline","stages":5,"width":2,"workload":"pathcount","tenant":"default","gen_version":1},"state":"running","created_at":"2026-07-01T12:00:04Z","dispatched_at":"2026-07-01T12:00:05Z","started_at":"2026-07-01T12:00:05Z"}}`,
	}
	var frames []byte
	for _, payload := range records {
		frames = binary.BigEndian.AppendUint32(frames, uint32(len(payload)))
		frames = binary.BigEndian.AppendUint32(frames, crc32.ChecksumIEEE([]byte(payload)))
		frames = append(frames, payload...)
	}
	plantSegment(t, dir, 1, frames)
	var history record
	if err := json.Unmarshal([]byte(records[0]), &history); err != nil {
		t.Fatal(err)
	}
	history.Run.Spec.GenVersion = 1
	want := snapshotJSON(t, *history.Run)

	reopen := func(pass int) map[string]string {
		t.Helper()
		s, recovered, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open %d: %v", pass, err)
		}
		defer s.Close()
		if len(recovered) != 0 {
			t.Fatalf("Open %d re-admitted %+v; a v1 run must never re-execute", pass, recovered)
		}
		reads := map[string]string{}
		for _, id := range []string{done, queued, running} {
			r, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			reads[id] = snapshotJSON(t, r)
			if id != done && (r.State != run.StateFailed || r.FinishedAt == nil || r.Result != nil || !strings.Contains(r.Error, "gen_version 1 is retired")) {
				t.Errorf("Open %d: interrupted v1 run recovered as %s", pass, reads[id])
			}
		}
		if reads[done] != want {
			t.Errorf("Open %d: terminal v1 run replays as\n%s\nwant\n%s", pass, reads[done], want)
		}
		return reads
	}
	if first, second := reopen(1), reopen(2); !maps.Equal(first, second) {
		t.Errorf("a second Open reads\n%v\nthe first read\n%v", second, first)
	}
}
