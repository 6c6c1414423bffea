package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the tables in main.go imply it.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func impliedBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, map[string]any{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return f
}

// BENCHMARK.json is written by hand for the driver to read; the metric and
// workload tables in main.go are what the program prints. This holds the
// two together. UPDATE_BENCHMARK_JSON=1 rewrites the file from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := impliedBenchmarkFile()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		blob, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	// Through JSON and back, so both sides hold the same Go types.
	var wantNorm benchmarkFile
	blob, _ := json.Marshal(want)
	if err := json.Unmarshal(blob, &wantNorm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantNorm) {
		t.Errorf("BENCHMARK.json and the tables in main.go disagree:\nfile:   %+v\ntables: %+v", got, wantNorm)
	}
}

func smokeConfig(t *testing.T) config {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir()) // span files go to os.TempDir()
	return config{
		root: "..", seed: 7, seconds: 1, setups: 1, reps: 1,
		clients: 2, workers: 2, tmp: t.TempDir(),
	}
}

// TestSmoke runs every workload, untraced and traced, with one-second
// phases: it proves the benchmark still builds against and reaches every
// layer it calls, and that every metric BENCHMARK.json names is produced.
// The numbers mean nothing at this length.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns dagd and runs for several seconds")
	}
	cfg := smokeConfig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bin, took, err := buildDagd(ctx, cfg.root, cfg.tmp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.dagdBin, cfg.buildS = bin, took
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(ctx, cfg, w, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d runs failed verification", w.name, trace, rep.failed, rep.attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := rep.values[d.name]
				switch {
				case !ok && (!trace || appliesTo(d.name, w)):
					t.Errorf("%s trace=%v: metric %s was not measured", w.name, trace, d.name)
				case !trace && !(v > 0):
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, v)
				}
			}
		}
	}
}

// appliesTo reports whether a per-layer metric is one the workload measures
// rather than one that reads 0 there by design.
func appliesTo(name string, w workload) bool {
	serviceOnly := map[string]bool{
		"client.submit_rtt_ms_p50": true, "server.deliver_ms_p50": true,
		"server.http_ms_mean.submit": true, "server.http_ms_mean.get": true,
		"dispatch.queue_wait_ms_p50": true, "dispatch.queue_wait_ms_p99": true,
		"dispatch.lease_wait_ms_p50": true, "wal.appends_per_run": true,
		"wal.fsyncs_per_run": true, "wal.fsync_ms_mean": true, "wal.fsync_ms_per_run": true, "wal.commit_batch_mean": true,
		"proc.dagd_cpu_ms_per_run": true, "proc.dagd_peak_rss_mb": true, "proc.build_s": true,
		"loadgen.lag_ms_p99": true, "svc.over_slo_share": true, "svc.open_latency_ms_p50": true,
		"svc.open_latency_ms_p90": true, "svc.open_latency_ms_p99": true,
	}
	if name == "svc.fill_s" {
		return false // the smoke configuration skips the fill
	}
	return !(w.engine && serviceOnly[name])
}

// A cancelled context must take the dagd child down with it, and stop must
// leave neither the process nor its directory behind.
func TestCancelLeavesNoChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns dagd")
	}
	cfg := smokeConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bin, _, err := buildDagd(ctx, cfg.root, cfg.tmp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.dagdBin = bin
	d, err := startDagd(ctx, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	pid := d.cmd.Process.Pid
	if err := syscall.Kill(pid, 0); err != nil {
		t.Fatalf("dagd (pid %d) is not running after start: %v", pid, err)
	}

	cancel()
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		t.Fatalf("dagd (pid %d) still running 10s after its context was cancelled", pid)
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("pid %d still exists after the child was reaped: %v", pid, err)
	}
	d.stop()
	if _, err := os.Stat(d.dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("dagd's directory %s survived stop: %v", d.dir, err)
	}
}
