package api

import (
	"encoding/json"
	"fmt"
	"time"
)

// Shape names accepted in RunSpec.Shape.
const (
	ShapeRandom   = "random"
	ShapePipeline = "pipeline"
	ShapeExplicit = "explicit"
	ShapeChain    = "chain"
	ShapeDynamic  = "dynamic"
)

// State is a run's lifecycle state as serialized on the wire.
type State string

// Run lifecycle states: queued → running → succeeded|failed|cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Edge is one directed edge of an explicit spec, serialized as a
// two-element JSON array [from, to].
type Edge [2]int

// UnmarshalJSON enforces that an edge is exactly a [from, to] pair, like
// the server does at admission.
func (e *Edge) UnmarshalJSON(b []byte) error {
	var pair []int
	if err := json.Unmarshal(b, &pair); err != nil {
		return fmt.Errorf("api: edge must be a [from,to] array: %w", err)
	}
	if len(pair) != 2 {
		return fmt.Errorf("api: edge must have exactly 2 endpoints, got %d", len(pair))
	}
	e[0], e[1] = pair[0], pair[1]
	return nil
}

// RunSpec is the POST /v1/runs body: which DAG to build (generated or
// explicit) and how to execute it. Exactly the fields relevant to Shape
// should be set; the server rejects, for example, an edges list on a
// generated shape.
type RunSpec struct {
	Shape    string  `json:"shape"`
	Nodes    int     `json:"nodes,omitempty"`    // node count (random, explicit, chain)
	EdgeProb float64 `json:"p,omitempty"`        // forward-edge probability (random); cross-parent probability (dynamic)
	Stages   int     `json:"stages,omitempty"`   // pipeline depth (pipeline); expansion depth (dynamic)
	Width    int     `json:"width,omitempty"`    // pipeline width (pipeline); max branching (dynamic)
	Seed     int64   `json:"seed,omitempty"`     // generator seed (random, dynamic)
	Edges    []Edge  `json:"edges,omitempty"`    // literal edge list (explicit)
	Workload string  `json:"workload,omitempty"` // built-in workload name; "" = server default
	Work     int     `json:"work,omitempty"`     // busy-work iterations per node
	// Workers is the run's scheduler pool size; 0 means the server's
	// default. It applies at or above the serial grain (Work of 60): a
	// run below it is walked on one goroutine whatever Workers says.
	Workers int `json:"workers,omitempty"`
	// ParallelWork splits each node's Work across idle scheduler workers
	// (Nabbit UseParallelNodes), on every shape.
	ParallelWork bool `json:"parallel_work,omitempty"`
	// GenVersion names the generator version the seed is drawn with:
	// 0 means the server's current version, which it stamps on the stored
	// spec, and any other value but the current one is rejected as
	// invalid_spec, including the retired 1.
	GenVersion int `json:"gen_version,omitempty"`
	// Tenant and Priority are server-stamped attribution: who the run was
	// admitted for (from the X-Tenant header, never this field) and the
	// tenant's priority class at admission. Both are ignored on submission.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// Result is the measured outcome of a finished run.
//
// SerialMillis and ParallelMillis are each pass's own wall time. On every
// shape but dynamic the two passes run at the same time, so when the pass
// uses every core Speedup is the ratio of two passes that shared the cores,
// not a Nabbit T1/TP; that is ParallelMillis at one worker over
// ParallelMillis at P, on a machine with a core to spare for the reference.
//
// Workers is the width the pass ran at: the spec's (or the server's
// default) at or above the serial grain, and 1 for a run below it, whose
// pass is walked on one goroutine.
type Result struct {
	Workload       string  `json:"workload"`
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	Depth          int     `json:"depth"`
	Workers        int     `json:"workers"`
	SinkPaths      uint64  `json:"sink_paths_mod64"`
	Match          bool    `json:"match"`
	SerialMillis   float64 `json:"serial_ms"`
	ParallelMillis float64 `json:"parallel_ms"`
	Speedup        float64 `json:"speedup"`
}

// Run is one run's snapshot as returned by the API.
type Run struct {
	ID    string  `json:"id"`
	Spec  RunSpec `json:"spec"`
	State State   `json:"state"`
	// SpecRedacted means the server dropped the spec's explicit edge
	// list from this terminal snapshot to bound retained memory; the
	// spec no longer describes the executed graph and must not be
	// resubmitted as-is.
	SpecRedacted bool `json:"spec_redacted,omitempty"`
	// Restarts counts how many times the server re-admitted this run to
	// its queue after an interruption: a durable (WAL-backed) server
	// restart, or — in distributed mode — a worker lease that expired
	// after missed heartbeats.
	Restarts int `json:"restarts,omitempty"`
	// CancelRequested means a cancellation was acknowledged while the run
	// was running: it stays running until the executor stops, then lands in
	// cancelled (also after a server restart). A terminal snapshot keeps it.
	CancelRequested bool    `json:"cancel_requested,omitempty"`
	Error           string  `json:"error,omitempty"`
	Result          *Result `json:"result,omitempty"`
	// Worker is the ID of the fleet worker the run last executed on.
	// Empty when the server executes runs embedded (no -fleet-addr).
	Worker string `json:"worker,omitempty"`
	// Lifecycle timestamps, each stamped when the run crosses the matching
	// transition: CreatedAt at admission, DispatchedAt when a dispatcher
	// popped it off the queue, StartedAt when the queued→running transition
	// was applied (a lease stamps both from one clock read, so they are
	// equal), FinishedAt at the terminal transition. Clients
	// compute queue-vs-execute breakdowns from these.
	CreatedAt    time.Time  `json:"created_at"`
	DispatchedAt *time.Time `json:"dispatched_at,omitempty"`
	StartedAt    *time.Time `json:"started_at,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
}

// RunList is one page of GET /v1/runs. NextCursor is empty on the last
// page; otherwise pass it back as ?cursor= to continue.
type RunList struct {
	Runs       []Run  `json:"runs"`
	Count      int    `json:"count"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// WorkloadList is the GET /v1/workloads response.
type WorkloadList struct {
	Workloads []string `json:"workloads"`
	Count     int      `json:"count"`
	Default   string   `json:"default"`
}
