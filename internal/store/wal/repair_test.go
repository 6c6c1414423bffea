package wal

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
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
	plantSegment(t, dir, 4, 3, 1, buf)

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

// plantSegment writes frames as segment seq of shard directory shard in a
// data dir whose manifest pins shards, and returns that directory. With
// shards > 1 it lays out what an older, sharded version wrote.
func plantSegment(t *testing.T, dir string, shards, shard int, seq uint64, frames []byte) string {
	t.Helper()
	if err := writeManifest(dir, shards); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, shardDirName(shard))
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, segmentName(seq)), frames, 0o644); err != nil {
		t.Fatal(err)
	}
	return sdir
}

// TestReplayUnversionedSpecAsV1 plants a queued random-spec record written
// before gen_version existed — JSON by hand, framed by hand — and pins that
// recovery reads it as generator version 1, so the re-executed run rebuilds
// the graph it was admitted as and not the one its seed means today.
func TestReplayUnversionedSpecAsV1(t *testing.T) {
	dir := t.TempDir()
	const id = "r000001-0ddba11a"
	payload := []byte(`{"op":"create","run":{"id":"` + id + `","spec":{"shape":"random","nodes":300,"p":0.02,"seed":5,"workload":"pathcount","tenant":"default"},"state":"queued","created_at":"2026-07-01T12:00:00Z"}}`)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	plantSegment(t, dir, 4, 1, 1, append(frame, payload...))

	s, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if len(recovered) != 1 || recovered[0].ID != id {
		t.Fatalf("recovered %+v, want the one queued run", recovered)
	}
	spec := recovered[0].Spec
	if spec.GenVersion != 1 {
		t.Fatalf("replayed gen_version %d, want 1", spec.GenVersion)
	}

	res, err := run.Execute(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	sink := func(version int) uint64 {
		t.Helper()
		v := spec
		v.GenVersion = version
		r, err := run.Execute(context.Background(), v, 2)
		if err != nil {
			t.Fatal(err)
		}
		return r.SinkPaths
	}
	v1, v2 := sink(1), sink(2)
	if v1 == v2 {
		t.Fatalf("v1 and v2 agree on sink %d; the test cannot tell them apart", v1)
	}
	if res.SinkPaths != v1 {
		t.Errorf("re-executed sink_paths_mod64 %d, want v1's %d (v2's is %d)", res.SinkPaths, v1, v2)
	}
}
