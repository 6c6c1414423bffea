package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
)

// BenchmarkWALAppend measures the durable append path (Create: one framed
// record written and, under fsync, made durable before return) across the
// axes the sharded redesign targets: serial vs 16 concurrent appenders,
// fsync off / group-commit fsync, and 1 vs 8 shards.
//
// Compaction is disabled and segments are kept large so the numbers are
// the append+sync cost, not snapshot churn.
func BenchmarkWALAppend(b *testing.B) {
	type config struct {
		name    string
		workers int
		opts    Options
	}
	configs := []config{
		{"Serial/NoFsync", 1, Options{Shards: 1}},
		{"Serial/GroupFsync", 1, Options{Shards: 1, Fsync: true}},
		{"Goroutines16/NoFsync/Shards1", 16, Options{Shards: 1}},
		{"Goroutines16/NoFsync/Shards8", 16, Options{Shards: 8}},
		{"Goroutines16/GroupFsync/Shards1", 16, Options{Shards: 1, Fsync: true}},
		{"Goroutines16/GroupFsync/Shards8", 16, Options{Shards: 8, Fsync: true}},
	}
	spec := run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}}
	for _, cfg := range configs {
		cfg.opts.CompactThreshold = -1
		cfg.opts.SegmentMaxBytes = 1 << 30
		b.Run(cfg.name, func(b *testing.B) {
			s, _, err := Open(b.TempDir(), cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			if cfg.workers == 1 {
				for i := 0; i < b.N; i++ {
					if _, err := s.Create(spec); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				var next int64
				var wg sync.WaitGroup
				errCh := make(chan error, cfg.workers)
				for w := 0; w < cfg.workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for atomic.AddInt64(&next, 1) <= int64(b.N) {
							if _, err := s.Create(spec); err != nil {
								errCh <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				select {
				case err := <-errCh:
					b.Fatal(err)
				default:
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/sec")
		})
	}
}

// BenchmarkWALFinishParallel measures the full transition path (Begin +
// Finish on pre-created runs) with 16 workers under group commit — closer
// to what a loaded dagd does per run than raw Creates.
func BenchmarkWALFinishParallel(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"GroupFsync/Shards8", Options{Shards: 8, Fsync: true}},
	} {
		cfg.opts.CompactThreshold = -1
		cfg.opts.SegmentMaxBytes = 1 << 30
		b.Run(cfg.name, func(b *testing.B) {
			s, _, err := Open(b.TempDir(), cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			spec := run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}}
			ids := make([]string, b.N)
			for i := range ids {
				r, err := s.Create(spec)
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = r.ID
			}
			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			const workers = 16
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := atomic.AddInt64(&next, 1) - 1
						if i >= int64(b.N) {
							return
						}
						if _, err := s.Begin(ids[i], time.Now(), "", func() {}); err != nil {
							b.Error(err)
							return
						}
						if _, err := s.Finish(ids[i], &run.Result{Nodes: 12, Match: true}, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

// BenchmarkRunLifecycleFsync is one run as a loaded dagd drives it with
// -fsync — Create → Begin → Finish → EvictTerminal(keep) on one shard
// already holding keep terminal runs, so every op evicts one. What it costs
// is the two awaited appends (fsyncs/op ≈ 2): the begin record rides the
// finish's fsync and the eviction writes nothing.
func BenchmarkRunLifecycleFsync(b *testing.B) {
	const keep = 4096
	dir := b.TempDir()
	opts := Options{Shards: 1, CompactThreshold: -1, SegmentMaxBytes: 1 << 30}
	// Fill without fsync, then reopen with it: the history replays.
	fill, _, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < keep; i++ {
		lifecycle(b, fill, func() {})
	}
	if err := fill.Close(); err != nil {
		b.Fatal(err)
	}
	opts.Fsync = true
	opts.Metrics = metrics.NewRegistry()
	s, _, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	fsyncs := s.shards[0].met.fsyncs
	before := fsyncs.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle(b, s, func() {})
		s.EvictTerminal(keep)
	}
	b.StopTimer()
	b.ReportMetric((fsyncs.Value()-before)/float64(b.N), "fsyncs/op")
}
