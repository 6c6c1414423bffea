package wal

import "github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"

// batchBuckets sizes the commit-batch-size histogram: 1 means group commit
// degenerated to per-record fsync (serial load); the high buckets show how
// many appends each fsync absorbed under concurrency.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// walInstruments is the log's metric handles; nil-safe throughout.
type walInstruments struct {
	appends       *metrics.Counter   // dagd_wal_appends_total
	appendedBytes *metrics.Counter   // dagd_wal_appended_bytes_total
	fsyncs        *metrics.Counter   // dagd_wal_fsyncs_total
	fsyncSeconds  *metrics.Histogram // dagd_wal_fsync_seconds
	batchSize     *metrics.Histogram // dagd_wal_commit_batch_size
	rotations     *metrics.Counter   // dagd_wal_segment_rotations_total
	compactions   *metrics.Counter   // dagd_wal_compactions_total
	compactSecs   *metrics.Histogram // dagd_wal_compaction_seconds
	reclaimed     *metrics.Counter   // dagd_wal_compaction_reclaimed_records_total
}

func newWALInstruments(reg *metrics.Registry) walInstruments {
	return walInstruments{
		appends: reg.Counter("dagd_wal_appends_total",
			"Records appended to the active WAL segment."),
		appendedBytes: reg.Counter("dagd_wal_appended_bytes_total",
			"Bytes appended to the WAL segments (framed record size)."),
		fsyncs: reg.Counter("dagd_wal_fsyncs_total",
			"Group-commit fsyncs: each one makes every record appended since the previous fsync durable."),
		fsyncSeconds: reg.Histogram("dagd_wal_fsync_seconds",
			"Latency of group-commit fsyncs.", metrics.IOBuckets),
		batchSize: reg.Histogram("dagd_wal_commit_batch_size",
			"Records made durable per group-commit fsync (1 = no batching; higher = concurrent appends sharing one fsync).", batchBuckets),
		rotations: reg.Counter("dagd_wal_segment_rotations_total",
			"Active-segment rotations (seal + open a fresh segment)."),
		compactions: reg.Counter("dagd_wal_compactions_total",
			"Completed compactions (snapshot written, older files removed)."),
		compactSecs: reg.Histogram("dagd_wal_compaction_seconds",
			"Wall time of a completed compaction.", metrics.DefBuckets),
		reclaimed: reg.Counter("dagd_wal_compaction_reclaimed_records_total",
			"Log records dropped by compaction: records accumulated since the prior compaction minus the snapshot records that replaced them."),
	}
}
