// Package run models the lifecycle of one DAG execution request inside the
// dagd service and defines the Store abstraction for tracking many of them
// concurrently, with an in-memory implementation (MemStore: one map, one
// finish-ordered list of terminal runs, one lock).
// A durable, WAL-backed implementation lives in internal/store/wal.
//
// A run moves through the states
//
//	queued → running → succeeded | failed | cancelled
//
// where the three right-hand states are terminal. A queued run can also jump
// straight to cancelled if the caller cancels it before a dispatcher picks
// it up. All transitions are serialized per run by the store, so callers
// never observe a half-applied transition.
//
// One additional transition exists only across process restarts: a run that
// was queued or running when a WAL-backed dagd crashed is re-admitted as
// queued on the next boot (interrupted → queued), with Run.Restarts counting
// how many times that happened.
package run

import (
	"errors"
	"fmt"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// State is a run's lifecycle state.
type State int32

const (
	// StateQueued means the run is waiting in the dispatch queue.
	StateQueued State = iota
	// StateRunning means a dispatcher is executing the run.
	StateRunning
	// StateSucceeded means the run finished and its self-check matched.
	StateSucceeded
	// StateFailed means generation or execution returned an error.
	StateFailed
	// StateCancelled means the run was cancelled before or during execution.
	StateCancelled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// MarshalText implements encoding.TextMarshaler so states serialize as
// their lowercase names in JSON.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *State) UnmarshalText(text []byte) error {
	parsed, err := ParseState(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// ParseState converts a state name back to a State.
func ParseState(name string) (State, error) {
	for _, s := range []State{StateQueued, StateRunning, StateSucceeded, StateFailed, StateCancelled} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("run: unknown state %q", name)
}

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Spec is the serializable description of one run request: the generator
// config plus the execution knobs. Its JSON form is the POST /v1/runs body.
type Spec struct {
	gen.Config
	Workload string `json:"workload,omitempty"` // registered workload name; "" = the default (pathcount)
	Work     int    `json:"work,omitempty"`     // busy-work iterations per node (Nabbit W)
	Workers  int    `json:"workers,omitempty"`  // per-run worker pool size; 0 = service default
	// ParallelWork enables intra-node parallelism (Nabbit UseParallelNodes):
	// each node's Work iterations are split into sub-tasks that idle workers
	// steal, instead of burning on one worker. Requires a workload that
	// separates its busy-work from its value recurrence
	// (sched.SplitComputable — all built-ins qualify); not valid for the
	// dynamic shape.
	ParallelWork bool `json:"parallel_work,omitempty"`
	// Tenant is the owning tenant's name. The dispatcher stamps it at
	// admission from the resolved X-Tenant identity (never trusted from the
	// request body), it rides every WAL record, and crash recovery requeues
	// the run into this tenant's queue. Empty on legacy records; replay
	// treats those as the catch-all "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the tenant's priority class at admission time, stamped by
	// the dispatcher alongside Tenant. Recorded for attribution; scheduling
	// always uses the tenant's current configured class.
	Priority int `json:"priority,omitempty"`
}

// Spec validation bounds. The service executes untrusted specs, so sizes
// are capped to keep a single request from exhausting memory.
const (
	MaxNodes    = 1 << 20 // total node cap for any shape (a growth bound for dynamic)
	MaxEdges    = 1 << 22 // edge cap (expected for random, literal for explicit, growth bound for dynamic)
	MaxWork     = 1 << 26 // per-node busy-work cap
	MaxWorkers  = 1024
	MaxDynWidth = 64 // max per-node branching factor for the dynamic shape
)

// Admission sentinels. Every Validate failure wraps exactly one of these,
// so the API layer can map errors to machine-readable codes in one place
// instead of pattern-matching messages.
var (
	// ErrInvalidSpec marks structurally invalid specs: bad shapes, bounds
	// violations, and malformed explicit graphs (self-loops, duplicate or
	// out-of-range edges, cycles).
	ErrInvalidSpec = errors.New("run: invalid spec")
	// ErrUnknownWorkload marks specs naming a workload absent from the
	// registry.
	ErrUnknownWorkload = errors.New("run: unknown workload")
)

// Validate checks spec against shape-specific and service-wide bounds.
// Failures wrap ErrInvalidSpec or ErrUnknownWorkload. Unknown workload
// names fail admission here (HTTP 400), never inside a dispatcher; the
// empty workload means the registry default.
func (s Spec) Validate() error {
	if err := s.validateShape(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if s.Work < 0 || s.Work > MaxWork {
		return fmt.Errorf("%w: work %d outside [0,%d]", ErrInvalidSpec, s.Work, MaxWork)
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("%w: workers %d outside [0,%d]", ErrInvalidSpec, s.Workers, MaxWorkers)
	}
	// The dispatcher stamps Tenant with a registry-resolved name before
	// validation; this bound only guards direct store users (and replayed
	// logs) against junk attribution strings growing every WAL record.
	if len(s.Tenant) > tenant.MaxNameLen {
		return fmt.Errorf("%w: tenant name longer than %d bytes", ErrInvalidSpec, tenant.MaxNameLen)
	}
	w, err := sched.LookupWorkload(s.Workload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnknownWorkload, err)
	}
	if s.ParallelWork {
		if s.Shape == gen.Dynamic {
			return fmt.Errorf("%w: parallel_work is not supported for the dynamic shape", ErrInvalidSpec)
		}
		if _, ok := w.(sched.SplitComputable); !ok {
			return fmt.Errorf("%w: workload %s cannot split per-node work (no pure compute hook)", ErrInvalidSpec, w.Name())
		}
	}
	return nil
}

func (s Spec) validateShape() error {
	if s.Shape != gen.Explicit && len(s.Edges) > 0 {
		return fmt.Errorf("edges list is only valid for the explicit shape, not %v", s.Shape)
	}
	switch s.Shape {
	case gen.Random:
		if s.Nodes < 2 || s.Nodes > MaxNodes {
			return fmt.Errorf("random spec needs 2 <= nodes <= %d, got %d", MaxNodes, s.Nodes)
		}
		if s.EdgeProb < 0 || s.EdgeProb > 1 {
			return fmt.Errorf("edge probability %v outside [0,1]", s.EdgeProb)
		}
		// The node cap alone doesn't bound memory: a dense random graph
		// has ~p·n(n-1)/2 edges, quadratic in n.
		if expected := s.EdgeProb * float64(s.Nodes) * float64(s.Nodes-1) / 2; expected > MaxEdges {
			return fmt.Errorf("random spec expects ~%.0f edges (p·n(n-1)/2), cap is %d — lower nodes or p", expected, MaxEdges)
		}
	case gen.Pipeline:
		if s.Stages < 1 || s.Width < 1 {
			return fmt.Errorf("pipeline spec needs stages >= 1 and width >= 1, got %dx%d", s.Stages, s.Width)
		}
		// Overflow-safe form of stages*width+2 > MaxNodes: the naive product
		// wraps negative for huge JSON values (stages=width≈2^31.5) and
		// would bypass the cap entirely.
		if s.Stages > (MaxNodes-2)/s.Width {
			return fmt.Errorf("pipeline %dx%d exceeds the %d-node cap", s.Stages, s.Width, MaxNodes)
		}
	case gen.Chain:
		if s.Nodes < 1 || s.Nodes > MaxNodes {
			return fmt.Errorf("chain spec needs 1 <= nodes <= %d, got %d", MaxNodes, s.Nodes)
		}
	case gen.Dynamic:
		// The final size of a dynamic graph is unknowable at admission — the
		// graph is discovered at runtime — so MaxNodes/MaxEdges are enforced
		// as growth bounds during execution (gen.ErrGrowthBound) rather than
		// here. Only parameters that guarantee failure are rejected up front.
		if s.Stages < 1 || s.Stages > MaxNodes-1 {
			return fmt.Errorf("dynamic spec needs 1 <= stages <= %d, got %d", MaxNodes-1, s.Stages)
		}
		if s.Width < 1 || s.Width > MaxDynWidth {
			return fmt.Errorf("dynamic spec needs 1 <= width <= %d, got %d", MaxDynWidth, s.Width)
		}
		if s.EdgeProb < 0 || s.EdgeProb > 1 {
			return fmt.Errorf("edge probability %v outside [0,1]", s.EdgeProb)
		}
		if s.Nodes != 0 {
			return fmt.Errorf("dynamic spec must not set nodes (the graph is discovered at runtime), got %d", s.Nodes)
		}
	case gen.Explicit:
		if s.Nodes < 1 || s.Nodes > MaxNodes {
			return fmt.Errorf("explicit spec needs 1 <= nodes <= %d, got %d", MaxNodes, s.Nodes)
		}
		if len(s.Edges) > MaxEdges {
			return fmt.Errorf("explicit spec has %d edges, cap is %d", len(s.Edges), MaxEdges)
		}
		// Build the graph once at admission so self-loops, duplicate and
		// out-of-range edges, and cycles (the Builder's Kahn pass) are all
		// rejected before the spec can ever reach a dispatcher. The build
		// is O(nodes+edges), the same cost the dispatcher pays again at
		// execution — acceptable for the hard bounds above.
		if _, err := gen.ExplicitDAG(s.Nodes, s.Edges); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown dag shape %v", s.Shape)
	}
	return nil
}

// Result holds the measured outcome of a finished run. It is written once
// by the dispatcher and never mutated afterwards, so snapshots may share it.
type Result struct {
	Workload       string  `json:"workload"`
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	Depth          int     `json:"depth"`
	Workers        int     `json:"workers"`
	SinkPaths      uint64  `json:"sink_paths_mod64"` // sum of sink values (path count for pathcount)
	Match          bool    `json:"match"`
	SerialMillis   float64 `json:"serial_ms"`
	ParallelMillis float64 `json:"parallel_ms"`
	Speedup        float64 `json:"speedup"`
}

// Run is a snapshot of one run's state. Store methods return copies, so a
// Run a caller holds never changes underneath it.
type Run struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// SpecRedacted is set when the terminal snapshot dropped the spec's
	// explicit edge list to bound retained memory; the spec no longer
	// describes the executed graph and must not be resubmitted as-is.
	SpecRedacted bool `json:"spec_redacted,omitempty"`
	// Restarts counts how many times this run was re-admitted to the queue
	// after a service restart interrupted it (the interrupted → queued
	// recovery transition of the WAL-backed store). It is 0 for runs that
	// executed within a single process lifetime.
	Restarts int     `json:"restarts,omitempty"`
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`
	// Worker identifies which executor ran (or is running) this run: the
	// remote worker's registered name when the run was leased to the fleet,
	// or "" for embedded in-process execution. Stamped by Begin, cleared
	// when a lease expiry requeues the run, and retained on terminal
	// snapshots for attribution.
	Worker string `json:"worker,omitempty"`
	// Lifecycle timestamps. DispatchedAt is when a dispatcher popped the run
	// off its queue; StartedAt is when the store durably recorded the
	// queued→running transition. The CreatedAt→DispatchedAt gap is queue
	// wait, DispatchedAt→StartedAt is Begin overhead (WAL append + fsync),
	// StartedAt→FinishedAt is execution.
	CreatedAt    time.Time  `json:"created_at"`
	DispatchedAt *time.Time `json:"dispatched_at,omitempty"`
	StartedAt    *time.Time `json:"started_at,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
}

// Store errors.
var (
	// ErrNotFound is returned when no run has the requested ID.
	ErrNotFound = errors.New("run: not found")
	// ErrNotQueued is returned by Begin when the run left the queued state
	// (e.g. it was cancelled while waiting).
	ErrNotQueued = errors.New("run: not queued")
	// ErrNotRunning is returned by Finish when the run is not running.
	ErrNotRunning = errors.New("run: not running")
	// ErrTerminal is returned by Cancel when the run already finished.
	ErrTerminal = errors.New("run: already in a terminal state")
)
