// Command dagbench generates a benchmark DAG, executes a registered
// workload both serially and on the concurrent work-stealing scheduler,
// checks the two results against each other, and prints timing as JSON. It
// drives the same execution path as the dagd service (run.Execute), so
// the CLI and the daemon can never report differently for the same spec.
//
// Usage:
//
//	dagbench -nodes 1000 -p 0.01 -workers 8
//	dagbench -type pipeline -stages 200 -width 4 -work 1000
//	dagbench -type explicit -nodes 4 -edges '[[0,1],[0,2],[1,3],[2,3]]'
//	dagbench -type chain -nodes 1000000
//	dagbench -type dynamic -stages 10 -width 3 -p 0.2 -seed 7
//	dagbench -type pipeline -stages 50 -width 2 -work 100000 -parallel-work
//	dagbench -workload hashchain -nodes 2000 -p 0.01
//	dagbench -list-workloads
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
)

// report is the JSON output printed per run: the spec knobs followed by
// the measured result (match, sink paths, timings, speedup).
type report struct {
	Shape        string  `json:"shape"`
	EdgeProb     float64 `json:"edge_prob,omitempty"`
	Stages       int     `json:"stages,omitempty"`
	Width        int     `json:"width,omitempty"`
	Seed         int64   `json:"seed"`
	Work         int     `json:"work"`
	ParallelWork bool    `json:"parallel_work,omitempty"`
	run.Result
}

func main() {
	var (
		shapeFlag = flag.String("type", "random", "dag shape: random, pipeline, explicit, chain, or dynamic")
		nodes     = flag.Int("nodes", 1000, "node count (random/explicit/chain shapes)")
		p         = flag.Float64("p", 0.01, "forward-edge probability (random); cross-parent probability (dynamic)")
		stages    = flag.Int("stages", 100, "pipeline depth (pipeline); expansion depth (dynamic)")
		width     = flag.Int("width", 4, "pipeline width (pipeline); max branching (dynamic)")
		seed      = flag.Int64("seed", 1, "generator seed")
		edges     = flag.String("edges", "", `explicit edge list as JSON, e.g. [[0,1],[1,2]] (explicit shape)`)
		work      = flag.Int("work", 0, "busy-work iterations per node (Nabbit W)")
		parallel  = flag.Bool("parallel-work", false, "split each node's work across idle workers (Nabbit UseParallelNodes)")
		workers   = flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
		workload  = flag.String("workload", "", "registered workload name (empty = "+sched.DefaultWorkload+")")
		list      = flag.Bool("list-workloads", false, "print registered workload names and exit")
		timeout   = flag.Duration("timeout", 5*time.Minute, "overall run timeout")
	)
	flag.Parse()

	if *list {
		for _, name := range sched.Workloads() {
			fmt.Println(name)
		}
		return
	}

	if err := bench(*shapeFlag, *workload, *edges, *nodes, *p, *stages, *width, *seed, *work, *workers, *parallel, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		os.Exit(1)
	}
}

func bench(shapeFlag, workload, edgesJSON string, nodes int, p float64, stages, width int, seed int64, work, workers int, parallelWork bool, timeout time.Duration) error {
	shape, err := gen.ParseShape(shapeFlag)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var edges []gen.Edge
	if edgesJSON != "" {
		if shape != gen.Explicit {
			return fmt.Errorf("-edges is only valid with -type explicit")
		}
		if err := json.Unmarshal([]byte(edgesJSON), &edges); err != nil {
			return fmt.Errorf("parsing -edges: %w", err)
		}
	} else if shape == gen.Explicit {
		// Require the flag so a forgotten -edges can't silently benchmark
		// an edgeless graph; an explicitly empty list ('[]') is still legal.
		return fmt.Errorf("-type explicit requires -edges (pass '[]' for an edgeless graph)")
	}
	if shape == gen.Dynamic {
		// The dynamic expander grows the graph itself; a node count is not a
		// spec knob there (MaxNodes is enforced as a growth bound at runtime).
		nodes = 0
	}
	spec := run.Spec{
		Config: gen.Config{
			Shape:    shape,
			Nodes:    nodes,
			EdgeProb: p,
			Stages:   stages,
			Width:    width,
			Seed:     seed,
			Edges:    edges,
		},
		Workload:     workload,
		Work:         work,
		Workers:      workers,
		ParallelWork: parallelWork,
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	res, err := run.Execute(ctx, spec, workers)
	if err != nil && res == nil {
		return err
	}

	rep := report{
		Shape:        shape.String(),
		Seed:         seed,
		Work:         work,
		ParallelWork: parallelWork,
		Result:       *res,
	}
	switch shape {
	case gen.Random:
		rep.EdgeProb = p
	case gen.Pipeline:
		rep.Stages = stages
		rep.Width = width
	case gen.Explicit, gen.Chain:
		rep.Seed = 0 // explicit and chain graphs involve no randomness
	case gen.Dynamic:
		rep.EdgeProb = p
		rep.Stages = stages
		rep.Width = width
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(rep); encErr != nil {
		return errors.Join(err, encErr)
	}
	// A mismatch still prints its report (match false) before failing.
	return err
}
