package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// traceSummary writes the spans of a traced pass to a file under the
// temporary directory and prints each layer's self time and its share of
// the root spans' total (submit→terminal for a service workload, one
// run.Execute for an engine workload). trace.self_time_cover is the sum of
// all self times over that total: 1 when the spans account for all of it.
func traceSummary(cfg config, w workload, root string, spans []span, values map[string]float64) error {
	path := filepath.Join(os.TempDir(), fmt.Sprintf("dagbench-spans-%s-seed%d.jsonl", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	var total, roots int64
	for _, s := range spans {
		if s.Name == root {
			total += s.End - s.Start
			roots++
		}
	}
	if total == 0 {
		return nil
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	var sum int64
	for n, v := range self {
		names = append(names, n)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	logf("  trace: %d spans of %d runs written to %s", len(spans), roots, path)
	logf("  %-22s %12s %8s", "layer (self time)", "ms per run", "share")
	for _, n := range names {
		logf("  %-22s %12.4f %7.1f%%", n, float64(self[n])/1e6/float64(roots), 100*float64(self[n])/float64(total))
	}
	values["trace.self_time_cover"] = float64(sum) / float64(total)
	logf("  self times add up to %.1f%% of %s", 100*values["trace.self_time_cover"], root)
	return nil
}

// layerProbes times each layer's public functions directly. The graphs are
// the same for every workload — engine_fine's, plus engine_coarse's split
// pipeline — so a probe's number means the same thing wherever it is read;
// own is the calling workload's own specs, for the per-run allocation
// counts (and, for a service workload, verification time, which an engine
// workload's traced pass has already measured).
func layerProbes(ctx context.Context, cfg config, own []api.RunSpec, wantVerify bool, values map[string]float64) error {
	random, dynamic := fineRandom, fineDynamic
	random.Seed, dynamic.Seed = cfg.seed, cfg.seed
	shapes := []struct {
		name      string
		spec      api.RunSpec
		generated bool // has an up-front gen.Generate to time
		single    bool // also timed at one worker
	}{
		{"random", random, true, true},
		{"pipeline", finePipeline, true, true},
		{"chain", fineChain, true, true},
		{"dynamic", dynamic, false, true},
		{"split", coarseSplit, false, false},
	}
	nsPerNode := func(r execResult) float64 { return r.ParallelMs * 1e6 / float64(r.Nodes) }
	for _, sh := range shapes {
		var gen, par, t1 []float64
		for i := 0; i < cfg.reps; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := execute(ctx, sh.spec, cfg.workers)
			if err != nil {
				return fmt.Errorf("probing %s: %w", sh.name, err)
			}
			par = append(par, nsPerNode(res))
			if sh.single {
				if res, err = execute(ctx, sh.spec, 1); err != nil {
					return fmt.Errorf("probing %s at one worker: %w", sh.name, err)
				}
				t1 = append(t1, nsPerNode(res))
			}
			if sh.generated {
				g, err := generateMs(sh.spec)
				if err != nil {
					return fmt.Errorf("probing %s: %w", sh.name, err)
				}
				gen = append(gen, g)
			}
		}
		values["sched.parallel_ns_per_node."+sh.name] = pct(par, 0.5)
		if sh.single {
			values["sched.t1_ns_per_node."+sh.name] = pct(t1, 0.5)
		}
		if sh.generated {
			values["gen.generate_ms_p50."+sh.name] = pct(gen, 0.5)
		}
	}
	// How many workers took a slice of a split node is only visible on the
	// executor itself, so this one goes through the decomposed path.
	_, st, err := executeSteps(ctx, coarseSplit, cfg.workers)
	if err != nil {
		return fmt.Errorf("probing split workers: %w", err)
	}
	values["sched.split_workers"] = float64(st.SplitWorkers)

	if len(own) > 64 {
		own = own[:64]
	}
	if values["run.allocs_per_run"], values["run.alloc_bytes_per_run"], err = allocsPerRun(ctx, own, cfg.workers); err != nil {
		return err
	}
	if wantVerify {
		var verify []float64
		for _, s := range own {
			_, st, err := executeSteps(ctx, s, cfg.workers)
			if err != nil {
				return err
			}
			verify = append(verify, ms(st.T[4].Sub(st.T[3])))
		}
		values["run.verify_ms_p50"] = pct(verify, 0.5)
	}

	submit, err := probeDispatchSubmit(ctx, 300*cfg.reps, cfg.workers)
	if err != nil {
		return err
	}
	values["dispatch.probe.submit_us_p50"] = pct(submit, 0.5)
	lease, err := probeLeaseCycle(ctx, 300*cfg.reps)
	if err != nil {
		return err
	}
	values["dispatch.probe.lease_cycle_us_p50"] = pct(lease, 0.5)

	dir, err := os.MkdirTemp(cfg.tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	appendUs, perS, err := probeWAL(dir, cfg.clients, 30*cfg.reps)
	if err != nil {
		return err
	}
	values["wal.probe.append_us_p50"] = pct(appendUs, 0.5)
	values["wal.probe.appends_per_s"] = perS
	return nil
}
