package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the header of a committed result file: what the numbers
// under it were measured on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_filesystem"`
}

// resultSet is one of the two files -selfcheck writes.
type resultSet struct {
	Env       environment               `json:"environment"`
	Set       string                    `json:"set"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runSelfcheck runs every workload twice, as sets A and B of the same
// code, alternating which set goes first, and compares each end-to-end
// metric of each pair against the metric's own bound. It reports false
// when any pair disagrees or any run failed verification.
func runSelfcheck(ctx context.Context, cfg config, outDir string) (bool, error) {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernelRelease(), DataDirFS: filesystemOf(cfg.tmp),
	}
	sets := map[string]*resultSet{}
	for _, name := range []string{"A", "B"} {
		sets[name] = &resultSet{Env: env, Set: name, Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]workloadResult{}}
	}
	for i, w := range workloads {
		order := []string{"A", "B"}
		if i%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, set := range order {
			logf("selfcheck: set %s, %s", set, w.name)
			rep, err := runWorkload(ctx, cfg, w, false)
			if err != nil {
				return false, err
			}
			res := workloadResult{rep.attempted, rep.failed, map[string]float64{}}
			for _, d := range endToEnd {
				res.Metrics[d.name] = rep.values[d.name]
			}
			sets[set].Workloads[w.name] = res
		}
	}

	agree := true
	fmt.Printf("%-14s %-22s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads {
		a, b := sets["A"].Workloads[w.name], sets["B"].Workloads[w.name]
		if a.Failed+b.Failed > 0 {
			agree = false
			fmt.Printf("%-14s FAILED verification: %d of %d (A), %d of %d (B)\n", w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name], b.Metrics[d.name]
			diff := math.Abs(va-vb) / va
			verdict := ""
			if !(diff <= d.bound) { // also catches a NaN from a zero reading
				agree = false
				verdict = "  DISAGREE"
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %7.1f%% %6.0f%%%s\n", w.name, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
	}
	if outDir != "" {
		for name, set := range sets {
			blob, err := json.MarshalIndent(set, "", "  ")
			if err != nil {
				return false, err
			}
			if err := os.WriteFile(filepath.Join(outDir, "selfcheck_"+name+".json"), append(blob, '\n'), 0o644); err != nil {
				return false, err
			}
		}
	}
	return agree, nil
}

func kernelRelease() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// filesystemOf names the filesystem type dir lives on: the /proc/mounts
// entry with the longest mount point that is a prefix of dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}
