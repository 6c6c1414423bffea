// Distributed-execution e2e: a real dagd coordinator leasing runs to real
// dagworker processes, with SIGKILLs landing on either side. These cover
// what the in-process fleet tests cannot — a worker that vanishes without
// unwinding anything, and a coordinator restart under live workers.
package e2e

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/client"
)

// fleetClocks are the tight lease clocks every fleet e2e test runs with:
// expiry within ~2s of a worker death keeps the tests fast while still
// spanning several heartbeats (400ms each, a fifth of the TTL).
var fleetClocks = []string{"-lease-ttl", "2s"}

// startWorker launches a dagworker pointed at the coordinator's fleet
// listener. Its stderr is drained and discarded; the coordinator's view is
// what the tests assert on.
func startWorker(t *testing.T, fleetBase, name string, capacity int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(workerBin,
		"-coordinator", fleetBase,
		"-name", name,
		"-capacity", fmt.Sprint(capacity),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, stderr)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting dagworker %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitWorkers polls /metrics until the coordinator sees want workers.
func waitWorkers(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		workers, ok := scrapeMetrics(t, base)["dagd_workers"]
		if !ok {
			t.Fatal("/metrics has no dagd_workers; coordinator not in remote mode?")
		}
		n := workers.Sum()
		if int(n) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator sees %v workers, want %d", n, want)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestWorkerCrashRedispatch is the fleet acceptance test: two workers, a
// slow run observed mid-flight on one of them, SIGKILL that worker, and
// require the coordinator to expire the lease and re-dispatch the run to
// the survivor — restart counted, tenant attribution intact — while a
// trickle of small runs submitted across the kill all still succeed.
func TestWorkerCrashRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e fleet test builds and kills real processes")
	}
	cfgPath := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(cfgPath, []byte(`{"tenants":[{"name":"acme","weight":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	p := startDagd(t, t.TempDir(), append(fleetClocks, "-fleet-addr", "127.0.0.1:0", "-tenants", cfgPath)...)
	// Capacity 1 each: whichever worker holds the slow run holds nothing
	// else, and the other one carries the background load.
	workers := map[string]*exec.Cmd{
		"alpha": startWorker(t, p.fleetBase, "alpha", 1),
		"beta":  startWorker(t, p.fleetBase, "beta", 1),
	}
	waitWorkers(t, p.base, 2)
	alpha := client.New(p.base, client.WithTenant("acme"), client.WithWaitSlice(200*time.Millisecond))

	// A fast run proves the lease→execute→complete loop end to end first.
	warm, err := alpha.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{Workload: "hashchain"})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitSucceeded(t, alpha, warm.ID); fin.Worker == "" {
		t.Fatalf("warmup run has no worker attribution: %+v", fin)
	}

	// Background load: small default-tenant runs spread over the seconds
	// around the kill. Every submission must be accepted and every run must
	// succeed, whichever worker it lands on.
	type submitted struct {
		ids []string
		err error
	}
	loadc := make(chan submitted, 1)
	go func() {
		var s submitted
		defer func() { loadc <- s }()
		for i := 0; i < 24; i++ {
			r, err := p.c.Submit(ctx, api.RunSpec{Shape: api.ShapePipeline, Stages: 50, Width: 4, Work: 50})
			if err != nil {
				s.err = err
				return
			}
			s.ids = append(s.ids, r.ID)
			time.Sleep(100 * time.Millisecond)
		}
	}()

	// The victim: a slow run, observed running, whose holder we kill.
	slow, err := alpha.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p.c, slow.ID, api.StateRunning)
	running, err := p.c.Get(ctx, slow.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Worker IDs are "<name>-NNNN"; the name picks the process to kill.
	victimName, _, _ := strings.Cut(running.Worker, "-")
	victim, ok := workers[victimName]
	if !ok {
		t.Fatalf("run %s leased to unrecognized worker %q", slow.ID, running.Worker)
	}
	survivorName := "beta"
	if victimName == "beta" {
		survivorName = "alpha"
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL worker %s: %v", victimName, err)
	}
	victim.Wait()

	// The lease expires within ~2s; the survivor re-executes from scratch.
	fin := waitSucceeded(t, alpha, slow.ID)
	if fin.Restarts < 1 {
		t.Errorf("redispatched run has Restarts = %d, want >= 1", fin.Restarts)
	}
	if !strings.HasPrefix(fin.Worker, survivorName+"-") {
		t.Errorf("redispatched run attributed to %q, want the survivor %s-*", fin.Worker, survivorName)
	}
	if fin.Spec.Tenant != "acme" {
		t.Errorf("redispatched run lost tenant attribution: %q, want acme", fin.Spec.Tenant)
	}

	load := <-loadc
	if load.err != nil {
		t.Fatalf("background submit %d across the worker kill: %v", len(load.ids)+1, load.err)
	}
	for _, id := range load.ids {
		waitSucceeded(t, p.c, id)
	}

	// The expiry is on the coordinator's wire too, on a page that parses.
	if n := scrapeMetrics(t, p.base)["dagd_lease_expiries_total"].Sum(); n < 1 {
		t.Errorf("dagd_lease_expiries_total = %v after a worker SIGKILL, want >= 1", n)
	}

	// The dead worker's registration lapses too: only the survivor remains.
	waitWorkers(t, p.base, 1)
}

// TestCoordinatorRestartRecoversLeases kills the coordinator while a run
// executes remotely, restarts it on the same data dir and fleet port, and
// requires the leased run to come back as queued work that the (re-
// registering) worker then completes.
func TestCoordinatorRestartRecoversLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e fleet test builds and kills real processes")
	}
	dataDir := t.TempDir()
	ctx := context.Background()

	p1 := startDagd(t, dataDir, append(fleetClocks, "-fleet-addr", "127.0.0.1:0")...)
	startWorker(t, p1.fleetBase, "omega", 1)
	waitWorkers(t, p1.base, 1)

	slow, err := p1.c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p1.c, slow.ID, api.StateRunning)
	p1.sigkill(t)

	// Same data dir, same fleet port: the worker's configured coordinator
	// URL stays valid, it re-registers after its 404s, and the recovered
	// run (queued again, restart counted) drains through it.
	p2 := startDagd(t, dataDir, append(fleetClocks, "-fleet-addr", strings.TrimPrefix(p1.fleetBase, "http://"))...)
	got, err := p2.c.Get(ctx, slow.ID)
	if err != nil {
		t.Fatalf("Get(recovered %s): %v", slow.ID, err)
	}
	if got.State.Terminal() {
		t.Fatalf("recovered run already terminal at boot: %+v", got)
	}
	if got.Restarts < 1 {
		t.Errorf("recovered run has Restarts = %d, want >= 1", got.Restarts)
	}
	if fin := waitSucceeded(t, p2.c, slow.ID); !strings.HasPrefix(fin.Worker, "omega-") {
		t.Errorf("recovered run attributed to %q, want omega-*", fin.Worker)
	}
}
