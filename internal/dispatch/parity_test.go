package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// This file holds the dispatcher's lifecycle scenarios, each run twice: once
// with the in-process workers and once with Remote set and a lease loop in
// the test standing in for a dagworker. Both drive Lease → run.Execute →
// complete, so everything an operator can observe — terminal states and
// metric series, the per-tenant ones included — must come out the same;
// the one intended difference (what an expired Shutdown context does) is
// spelled out in its scenario.

// mismatchSeed marks a pipeline spec the workers fail as a divergence, with
// the run's measured result, so it passes admission and fails in the worker.
// A pipeline ignores its seed, so the marker changes nothing else.
const mismatchSeed = -7

func init() {
	base := execute
	execute = func(ctx context.Context, spec run.Spec, workers int) (*run.Result, error) {
		res, err := base(ctx, spec, workers)
		if err == nil && spec.Shape == gen.Pipeline && spec.Seed == mismatchSeed {
			res.Match = false
			err = fmt.Errorf("%w: forced divergence", run.ErrMismatch)
		}
		return res, err
	}
}

const parityWorker = "parity-worker"

// harness is a dispatcher in one of the two modes behind one surface.
type harness struct {
	remote bool
	store  *run.Store
	d      *Dispatcher
	reg    *metrics.Registry
}

// leaseLoop is what a dagworker does, minus the HTTP: lease, execute under
// a context the cancel hook ends, report the outcome as (state, message).
func leaseLoop(ctx context.Context, d *Dispatcher) {
	for {
		runCtx, cancel := context.WithCancel(ctx)
		r, err := d.Lease(ctx, parityWorker, nil, func(string) { cancel() })
		if err != nil {
			cancel()
			return
		}
		res, runErr := execute(runCtx, r.Spec, 2)
		cancel()
		state, msg := run.Outcome(runErr)
		// ErrNotLeased cannot happen: nothing in these scenarios expires.
		_, _ = d.CompleteLease(r.ID, state, msg, res)
	}
}

func newHarness(t *testing.T, remote bool, workers int, tenants []tenant.Config) *harness {
	t.Helper()
	h := &harness{remote: remote, store: run.NewMemStore(), reg: metrics.NewRegistry()}
	opts := Options{QueueDepth: 16, Dispatchers: workers, DefaultRunWorkers: 2, Metrics: h.reg, Remote: remote}
	if tenants != nil {
		opts.Tenants = mustRegistry(t, tenants...)
	}
	h.d = New(h.store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.d.Shutdown(ctx)
	})
	if remote {
		ctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				leaseLoop(ctx, h.d)
			}()
		}
		// Registered after Shutdown's cleanup, so it runs before it.
		t.Cleanup(func() { stop(); wg.Wait() })
	}
	return h
}

func (h *harness) submit(t *testing.T, spec run.Spec) string {
	t.Helper()
	r, err := h.d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r.ID
}

// settle waits until no tenant holds an in-flight slot: the slot is the
// last thing a completion gives back, after its metrics.
func (h *harness) settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		busy := 0
		for _, l := range loads(h.d) {
			busy += l.inflight + l.queued
		}
		if busy == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("dispatcher never went idle")
}

// observed is everything a scenario leaves behind that must not depend on
// where the run executed.
type observed struct {
	States map[string]run.State // by the scenario's label for the run
	// The lifecycle's counters, histogram counts and per-tenant queue and
	// in-flight gauges.
	Series map[string]float64
}

func (h *harness) observe(t *testing.T, ids map[string]string) observed {
	t.Helper()
	o := observed{States: map[string]run.State{}, Series: map[string]float64{}}
	wantWorker := ""
	if h.remote {
		wantWorker = parityWorker
	}
	for label, id := range ids {
		r, err := h.store.Get(id)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		o.States[label] = r.State
		if r.StartedAt != nil && r.Worker != wantWorker {
			t.Errorf("%s ran on worker %q, want %q", label, r.Worker, wantWorker)
		}
		if r.StartedAt == nil && r.Worker != "" {
			t.Errorf("%s never started but names worker %q", label, r.Worker)
		}
	}
	var page bytes.Buffer
	if err := h.reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(&page)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"dagd_submits_total", "dagd_submit_rejections_total", "dagd_queue_depth", "dagd_inflight_runs",
		"dagd_runs_completed_total", "dagd_run_duration_seconds", "dagd_queue_wait_seconds",
	} {
		fam, ok := fams[name]
		if !ok {
			t.Fatalf("family %s missing from the registry", name)
		}
		for _, s := range fam.Samples {
			if fam.Type == "histogram" && !strings.HasSuffix(s.Name, "_count") {
				continue
			}
			var labels []string
			for k, v := range s.Labels {
				labels = append(labels, k+"="+v)
			}
			sort.Strings(labels)
			o.Series[s.Name+"{"+strings.Join(labels, ",")+"}"] = s.Value
		}
	}
	return o
}

var slowSpec = pipelineSpec(40000, 4, 2000) // cannot finish before a test cancels it

func TestLifecycleParity(t *testing.T) {
	scenarios := []struct {
		name    string
		workers int
		tenants []tenant.Config
		// drive runs the scenario and returns its runs by label.
		drive func(t *testing.T, h *harness) map[string]string
		want  map[string]run.State
		// wantRemote, when set, is the remote mode's expectation and the
		// two modes are not compared: the scenario is the one place they
		// are meant to differ.
		wantRemote map[string]run.State
	}{
		{
			name: "success", workers: 2,
			drive: func(t *testing.T, h *harness) map[string]string {
				hc := pipelineSpec(20, 2, 0)
				hc.Workload = "hashchain"
				ids := map[string]string{
					"pipeline": h.submit(t, pipelineSpec(50, 4, 0)),
					"random":   h.submit(t, run.Spec{Config: gen.Config{Shape: gen.Random, Nodes: 400, EdgeProb: 0.02, Seed: 3}, Workers: 4}),
					"hash":     h.submit(t, hc),
				}
				for label, id := range ids {
					got := waitForState(t, h.store, id, run.StateSucceeded)
					if got.Result == nil || !got.Result.Match || got.Result.SinkPaths == 0 {
						t.Errorf("%s: result %+v, want a matching non-zero result", label, got.Result)
					}
					if got.DispatchedAt == nil || got.StartedAt == nil || got.FinishedAt == nil {
						t.Errorf("%s: missing lifecycle timestamps: %+v", label, got)
					}
				}
				return ids
			},
			want: map[string]run.State{"pipeline": run.StateSucceeded, "random": run.StateSucceeded, "hash": run.StateSucceeded},
		},
		{
			name: "failing spec", workers: 1,
			drive: func(t *testing.T, h *harness) map[string]string {
				bad := pipelineSpec(5, 2, 0)
				bad.Seed = mismatchSeed
				id := h.submit(t, bad)
				got := waitForState(t, h.store, id, run.StateFailed)
				if got.Result == nil || got.Result.Match || !strings.Contains(got.Error, "forced divergence") {
					t.Errorf("failed run = result %+v error %q, want the mismatching result and the verifier's text", got.Result, got.Error)
				}
				// The worker survived the failure.
				ok := h.submit(t, pipelineSpec(5, 2, 0))
				waitForState(t, h.store, ok, run.StateSucceeded)
				return map[string]string{"bad": id, "after": ok}
			},
			want: map[string]run.State{"bad": run.StateFailed, "after": run.StateSucceeded},
		},
		{
			name: "cancel while queued", workers: 1,
			drive: func(t *testing.T, h *harness) map[string]string {
				plug := h.submit(t, slowSpec)
				waitForState(t, h.store, plug, run.StateRunning)
				victim := h.submit(t, pipelineSpec(5, 2, 0))
				if c, err := h.d.Cancel(victim); err != nil || c.State != run.StateCancelled {
					t.Fatalf("Cancel(queued) = %+v, %v", c, err)
				}
				if n := queueLen(h.d); n != 0 {
					t.Errorf("QueueLen after cancelling the queued run = %d, want 0", n)
				}
				if _, err := h.d.Cancel(plug); err != nil {
					t.Fatal(err)
				}
				waitForState(t, h.store, plug, run.StateCancelled)
				// No worker ever picked the victim up.
				if got, _ := h.store.Get(victim); got.State != run.StateCancelled || got.StartedAt != nil {
					t.Errorf("cancelled-in-queue run = %+v, want cancelled and never started", got)
				}
				return map[string]string{"plug": plug, "victim": victim}
			},
			want: map[string]run.State{"plug": run.StateCancelled, "victim": run.StateCancelled},
		},
		{
			name: "cancel while running", workers: 1,
			drive: func(t *testing.T, h *harness) map[string]string {
				id := h.submit(t, slowSpec)
				waitForState(t, h.store, id, run.StateRunning)
				if c, err := h.d.Cancel(id); err != nil || c.State != run.StateRunning {
					t.Fatalf("Cancel(running) = %+v, %v; want still running until the worker reports", c, err)
				}
				if got := waitForState(t, h.store, id, run.StateCancelled); got.FinishedAt == nil {
					t.Error("cancelled run missing FinishedAt")
				}
				return map[string]string{"run": id}
			},
			want: map[string]run.State{"run": run.StateCancelled},
		},
		{
			name: "tenant at max_in_flight", workers: 2,
			tenants: []tenant.Config{{Name: "capped", MaxInFlight: 1}, {Name: "free"}},
			drive: func(t *testing.T, h *harness) map[string]string {
				hog := h.submit(t, tenantSpec("capped", 40000, 4, 2000))
				waitForState(t, h.store, hog, run.StateRunning)
				held := h.submit(t, tenantSpec("capped", 5, 2, 0))
				// The idle worker must pass over the capped tenant's queued
				// run and serve the other tenant.
				other := h.submit(t, tenantSpec("free", 5, 2, 0))
				waitForState(t, h.store, other, run.StateSucceeded)
				if got, err := h.store.Get(held); err != nil || got.State != run.StateQueued {
					t.Fatalf("capped tenant's second run = %v state %s, want still queued", err, got.State)
				}
				if _, err := h.d.Cancel(hog); err != nil {
					t.Fatal(err)
				}
				waitForState(t, h.store, held, run.StateSucceeded)
				return map[string]string{"hog": hog, "held": held, "other": other}
			},
			want: map[string]run.State{"hog": run.StateCancelled, "held": run.StateSucceeded, "other": run.StateSucceeded},
		},
		{
			name: "graceful drain", workers: 2,
			drive: func(t *testing.T, h *harness) map[string]string {
				ids := map[string]string{}
				for i := 0; i < 4; i++ {
					ids[fmt.Sprint("run", i)] = h.submit(t, pipelineSpec(30, 3, 0))
				}
				if h.store.Draining() {
					t.Error("Draining() true before Shutdown")
				}
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				if err := h.d.Shutdown(ctx); err != nil {
					t.Fatalf("Shutdown = %v", err)
				}
				// Shutdown returning is the claim that nothing is left: no
				// polling before the states are read.
				for label, id := range ids {
					if got, _ := h.store.Get(id); got.State != run.StateSucceeded {
						t.Errorf("%s after drain = %s, want succeeded", label, got.State)
					}
				}
				if !h.store.Draining() {
					t.Error("Draining() false after Shutdown")
				}
				if _, err := h.d.Submit(pipelineSpec(5, 2, 0)); !errors.Is(err, ErrShuttingDown) {
					t.Errorf("Submit after Shutdown = %v, want ErrShuttingDown", err)
				}
				if err := h.d.Shutdown(ctx); err != nil {
					t.Errorf("second Shutdown = %v, want idempotent nil", err)
				}
				return ids
			},
			want: map[string]run.State{"run0": run.StateSucceeded, "run1": run.StateSucceeded, "run2": run.StateSucceeded, "run3": run.StateSucceeded},
		},
		{
			// Where the modes part: local runs are force-cancelled and
			// waited for, a remote lease is abandoned still running (a
			// restart replays it as queued).
			name: "drain deadline", workers: 1,
			drive: func(t *testing.T, h *harness) map[string]string {
				id := h.submit(t, slowSpec)
				waitForState(t, h.store, id, run.StateRunning)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				if err := h.d.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
				}
				return map[string]string{"run": id}
			},
			want:       map[string]run.State{"run": run.StateCancelled},
			wantRemote: map[string]run.State{"run": run.StateRunning},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var seen [2]observed
			for i, remote := range []bool{false, true} {
				mode := "embedded"
				want := sc.want
				if remote {
					mode = "remote"
					if sc.wantRemote != nil {
						want = sc.wantRemote
					}
				}
				t.Run(mode, func(t *testing.T) {
					h := newHarness(t, remote, sc.workers, sc.tenants)
					ids := sc.drive(t, h)
					if !remote || sc.wantRemote == nil {
						h.settle(t)
					}
					seen[i] = h.observe(t, ids)
					if !reflect.DeepEqual(seen[i].States, want) {
						t.Errorf("final states = %v, want %v", seen[i].States, want)
					}
				})
			}
			if sc.wantRemote == nil && !t.Failed() && !reflect.DeepEqual(seen[0], seen[1]) {
				t.Errorf("the two modes left different traces:\nembedded %+v\nremote   %+v", seen[0], seen[1])
			}
		})
	}
}
