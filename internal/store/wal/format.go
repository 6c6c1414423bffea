package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// Record ops. All but opDel carry a full run snapshot.
const (
	opCreate    = "create"    // run admitted to the queue
	opBegin     = "begin"     // queued → running
	opFinish    = "finish"    // running → succeeded|failed|cancelled
	opCancel    = "cancel"    // queued → cancelled immediately
	opCancelReq = "cancelreq" // cancellation acknowledged on a running run
	opRequeue   = "requeue"   // interrupted → queued on recovery
	opPut       = "put"       // compaction baseline / recovery-repair snapshot
	opDel       = "del"       // run removed (submit rollback; evictions in older logs)
)

// record is the JSON payload of one framed WAL entry.
type record struct {
	Op  string   `json:"op"`
	Run *run.Run `json:"run,omitempty"`
	ID  string   `json:"id,omitempty"`
}

// frameHeaderSize is the fixed prefix of every record: payload length plus
// payload CRC32, both big-endian uint32.
const frameHeaderSize = 8

// maxRecordBytes bounds a single record's payload. The largest legitimate
// record is a queued explicit spec near run.MaxEdges (~4M edges at ~10 JSON
// bytes each); anything bigger is treated as corruption rather than an
// allocation request.
const maxRecordBytes = 128 << 20

// shardIndex maps a run ID to its owning shard. It must be a pure function
// of the ID and the (manifest-pinned) shard count: every record for one run
// lands in one shard, so per-shard replay order is total order for that run.
func shardIndex(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// replayState is the fold over a log chain: the latest snapshot per
// surviving run, plus which non-terminal runs had a cancellation
// acknowledged (an opCancelReq with no terminal record after it).
type replayState struct {
	runs            map[string]run.Run
	cancelRequested map[string]bool
}

func newReplayState() *replayState {
	return &replayState{
		runs:            make(map[string]run.Run),
		cancelRequested: make(map[string]bool),
	}
}

// loadChain replays the snapshot + segment chain in dir (a shard directory)
// and returns the surviving replay state and the highest file sequence
// number seen.
func loadChain(dir string) (*replayState, uint64, error) {
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, 0, err
	}
	state := newReplayState()
	var maxSeq uint64

	// Baseline: the highest-numbered snapshot. Older snapshots are only
	// leftovers from an interrupted cleanup; ignore them.
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		maxSeq = snapSeq
		path := filepath.Join(dir, snapshotName(snapSeq))
		// A snapshot is written to a temp file, fsynced, and renamed into
		// place, so it is either absent or complete: any damage is real
		// corruption, never a torn tail.
		if err := replayFile(path, false, state); err != nil {
			return nil, 0, err
		}
	}

	for i, seq := range segs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= snapSeq {
			// Sealed before the snapshot was taken; its records are already
			// baked in. (Normally deleted by compaction — tolerate leftovers
			// from a crash between snapshot rename and segment removal.)
			continue
		}
		final := i == len(segs)-1
		if err := replayFile(filepath.Join(dir, segmentName(seq)), final, state); err != nil {
			return nil, 0, err
		}
	}
	return state, maxSeq, nil
}

// replayFile applies every record in path to state. final selects the
// torn-tail policy: in the final segment a truncated, checksum-failing, or
// undecodable record (and everything after it) is discarded by truncating
// the file; in any earlier file the same damage is corruption and an error.
func replayFile(path string, final bool, state *replayState) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
	}
	off := 0
	for {
		n, rec, err := decodeFrame(data[off:])
		if err == errEndOfLog {
			return nil
		}
		if err != nil {
			if !final {
				return fmt.Errorf("wal: %s is corrupt at offset %d: %w (refusing to load a damaged sealed file)",
					filepath.Base(path), off, err)
			}
			log.Printf("wal: truncating torn tail of %s at offset %d: %v", filepath.Base(path), off, err)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), terr)
			}
			return nil
		}
		applyRecord(rec, state)
		off += n
	}
}

// applyRecord folds one decoded record into the replay state. Snapshots
// are last-writer-wins; the cancel-requested flag survives later
// non-terminal records for the run except an explicit requeue — a requeue
// supersedes the interrupted attempt (live lease expiry never requeues a
// cancel-requested run, and recovery only writes opRequeue when the flag
// was absent) — and becomes irrelevant once a terminal record lands.
func applyRecord(rec record, state *replayState) {
	switch rec.Op {
	case opDel:
		delete(state.runs, rec.ID)
		delete(state.cancelRequested, rec.ID)
	case opCancelReq:
		state.runs[rec.Run.ID] = *rec.Run
		state.cancelRequested[rec.Run.ID] = true
	case opRequeue:
		state.runs[rec.Run.ID] = *rec.Run
		delete(state.cancelRequested, rec.Run.ID)
	default:
		state.runs[rec.Run.ID] = *rec.Run
	}
}

// errEndOfLog marks a clean end of a record stream (zero bytes remaining).
var errEndOfLog = errors.New("wal: end of log")

// decodeFrame decodes one framed record from the front of b, returning the
// total bytes consumed. Any defect — short header, truncated payload,
// oversized or zero length, CRC mismatch, malformed JSON, or a record that
// fails validation — is an error; callers choose between torn-tail
// truncation and refusal.
func decodeFrame(b []byte) (int, record, error) {
	if len(b) == 0 {
		return 0, record{}, errEndOfLog
	}
	if len(b) < frameHeaderSize {
		return 0, record{}, fmt.Errorf("short frame header (%d bytes)", len(b))
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n == 0 || n > maxRecordBytes {
		return 0, record{}, fmt.Errorf("implausible record length %d", n)
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return 0, record{}, fmt.Errorf("truncated record: header claims %d bytes, %d remain", n, len(b)-frameHeaderSize)
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[4:8]); got != want {
		return 0, record{}, fmt.Errorf("checksum mismatch (got %08x, want %08x)", got, want)
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, record{}, fmt.Errorf("undecodable record: %v", err)
	}
	if err := validateRecord(rec); err != nil {
		return 0, record{}, err
	}
	return frameHeaderSize + int(n), rec, nil
}

// validateRecord rejects structurally invalid records so replay never
// inserts a run it could not have written: every op must be known, del
// needs an ID, everything else needs a snapshot with a non-empty ID.
// (State names are enforced by JSON decoding already — run.State
// unmarshals from its text form and rejects unknown names.)
func validateRecord(rec record) error {
	switch rec.Op {
	case opDel:
		if rec.ID == "" {
			return errors.New("del record without id")
		}
	case opCreate, opBegin, opFinish, opCancel, opCancelReq, opRequeue, opPut:
		if rec.Run == nil || rec.Run.ID == "" {
			return fmt.Errorf("%s record without run snapshot", rec.Op)
		}
	default:
		return fmt.Errorf("unknown record op %q", rec.Op)
	}
	return nil
}

// encodeFrame appends the framed encoding of rec to buf.
func encodeFrame(buf []byte, rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("wal: encoding record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return buf, fmt.Errorf("wal: record payload %d bytes exceeds cap %d", len(payload), maxRecordBytes)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...), nil
}

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016d.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%016d.log", seq) }
func shardDirName(i int) string      { return fmt.Sprintf("shard-%02d", i) }

// scanDir lists snapshot and segment sequence numbers in dir, each sorted
// ascending.
func scanDir(dir string) (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scanning data dir: %w", err)
	}
	parse := func(name, prefix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".log") {
			return 0, false
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".log")
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			return 0, false
		}
		return seq, true
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parse(e.Name(), "snapshot-"); ok {
			snaps = append(snaps, seq)
		} else if seq, ok := parse(e.Name(), "wal-"); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

// writeFileAtomic stages data in a temp file, fsyncs it, and renames it to
// name inside dir, so the file is either absent or complete — never torn.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return fmt.Errorf("wal: staging %s: %w", name, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: writing %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: syncing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: closing %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: installing %s: %w", name, err)
	}
	return nil
}

// removeStaleTemps clears *.tmp staging debris a crash may have left in dir.
func removeStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
