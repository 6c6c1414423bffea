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
// record written and, under fsync, made durable before return): serial vs
// 16 concurrent appenders, fsync off vs group-commit fsync.
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
		{"Serial/NoFsync", 1, Options{}},
		{"Serial/GroupFsync", 1, Options{Fsync: true}},
		{"Goroutines16/NoFsync", 16, Options{}},
		{"Goroutines16/GroupFsync", 16, Options{Fsync: true}},
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
		{"GroupFsync", Options{Fsync: true}},
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

// BenchmarkReadsDuringExplicitCreates times Get while another goroutine
// drives runs with a 64k-edge explicit spec through the log (Create, Begin,
// Finish, EvictTerminal), so every create record encodes about a megabyte. A read that waits for a record to be written shows up as
// max-read-µs near that encode's time and as slow-reads (reads of 1ms or
// more); runs/sec is the writer's rate.
func BenchmarkReadsDuringExplicitCreates(b *testing.B) {
	const edges = 1 << 16
	big := run.Spec{Config: gen.Config{Shape: gen.Explicit, Nodes: edges + 1, Edges: make([]gen.Edge, edges)}}
	for i := range big.Edges {
		big.Edges[i] = gen.Edge{i, i + 1}
	}
	s, _, err := Open(b.TempDir(), Options{CompactThreshold: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	probe, err := s.Create(run.Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 5, Width: 2}})
	if err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var written atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, err := s.Create(big)
			if err == nil {
				_, err = s.Begin(r.ID, time.Now(), "", func() {})
			}
			if err == nil {
				_, err = s.Finish(r.ID, &run.Result{Nodes: edges + 1, Match: true}, nil)
			}
			if err != nil {
				b.Error(err)
				return
			}
			s.EvictTerminal(8)
			written.Add(1)
		}
	}()

	var worst time.Duration
	slow := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := s.Get(probe.ID); err != nil {
			b.Fatal(err)
		}
		d := time.Since(t0)
		worst = max(worst, d)
		if d >= time.Millisecond {
			slow++
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(worst.Microseconds()), "max-read-µs")
	b.ReportMetric(float64(slow), "slow-reads")
	b.ReportMetric(float64(written.Load())/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkRunLifecycleFsync is one run as a loaded dagd drives it with
// -fsync — Create → Begin → Finish → EvictTerminal(keep) on a store
// already holding keep terminal runs, so every op evicts one. What it costs
// is the two awaited appends (fsyncs/op ≈ 2): Begin and the eviction write
// nothing.
func BenchmarkRunLifecycleFsync(b *testing.B) {
	const keep = 4096
	dir := b.TempDir()
	opts := Options{CompactThreshold: -1, SegmentMaxBytes: 1 << 30}
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
	l, _, err := open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	s := l.store
	defer s.Close()
	fsyncs := l.met.fsyncs
	before := fsyncs.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle(b, s, func() {})
		s.EvictTerminal(keep)
	}
	b.StopTimer()
	b.ReportMetric((fsyncs.Value()-before)/float64(b.N), "fsyncs/op")
}
