// Package e2e black-box tests real dagd and dagworker binaries over their
// public surfaces only: the compiled commands, their flags, what they log
// and serve, and pkg/client. It is the one out-of-process functional check,
// so it covers what in-process tests cannot — SIGKILL'd processes, cold
// restarts from the same -data-dir, signal-driven shutdown, and the
// listeners main wires up.
package e2e

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/metrics"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/client"
)

// The binaries under test, built once per go test ./e2e by TestMain.
var dagdBin, workerBin string

// TestMain compiles dagd and dagworker before any test runs. Under -short
// every test skips, so nothing is built or spawned.
func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "dag-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir, "./cmd/dagd", "./cmd/dagworker")
	build.Dir = ".." // module root
	out, err := build.CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building dagd and dagworker: %v\n%s", err, out)
	} else {
		dagdBin, workerBin = filepath.Join(dir, "dagd"), filepath.Join(dir, "dagworker")
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one live dagd process, the base URL of each listener it reported
// and a client bound to its public API.
type proc struct {
	cmd       *exec.Cmd
	base      string // public v1 API
	fleetBase string // worker API; empty without -fleet-addr
	debugBase string // pprof, expvar, second /metrics; empty without -debug-addr
	c         *client.Client
}

// startDagd launches dagd on an ephemeral port over dataDir and waits until
// its API answers. extraArgs come last, so they override the defaults here
// (flag keeps the last value) and pick the mode: -fleet-addr makes the
// process a coordinator. It is force-killed at test cleanup if the test
// didn't stop it first.
func startDagd(t *testing.T, dataDir string, extraArgs ...string) *proc {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-dispatchers", "1",
		"-queue", "64",
		"-drain-timeout", "10s",
	}, extraArgs...)
	cmd := exec.Command(dagdBin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting dagd: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// dagd logs each listener's bound address once it is bound, the public
	// API's ("dagd: listening on 127.0.0.1:<port>") last, so that line
	// completes the set. Keep draining stderr afterwards so the child never
	// blocks on the pipe.
	ready := make(chan *proc, 1)
	go func() {
		p := &proc{cmd: cmd}
		listeners := []struct {
			marker string
			base   *string
		}{
			{"debug listener on ", &p.debugBase},
			{"fleet listener on ", &p.fleetBase},
			{"listening on ", &p.base},
		}
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if p == nil {
				continue
			}
			for _, l := range listeners {
				if _, rest, ok := strings.Cut(sc.Text(), l.marker); ok {
					addr, _, _ := strings.Cut(rest, " ")
					*l.base = "http://" + addr
				}
			}
			if p.base != "" {
				ready <- p
				p = nil
			}
		}
	}()
	var p *proc
	select {
	case p = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("dagd never reported its listen address")
	}

	p.c = client.New(p.base, client.WithWaitSlice(200*time.Millisecond))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := p.c.Workloads(context.Background()); err == nil {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("dagd API never became reachable")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sigkill hard-kills the process — no drain, no WAL close — and reaps it.
func (p *proc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	p.cmd.Wait()
}

// stop shuts the process down gracefully via SIGTERM and requires exit 0.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("dagd exited uncleanly after SIGTERM: %v", err)
	}
}

// waitState polls until the run reaches want (a non-terminal observation
// target, so it cannot use the long-poll, which parks until terminal).
func waitState(t *testing.T, c *client.Client, id string, want api.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if r.State == want {
			return
		}
		if r.State.Terminal() {
			t.Fatalf("run %s reached terminal %s while waiting for %s", id, r.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s, want %s", id, r.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitSucceeded long-polls the run to a terminal state and requires it to
// be succeeded with a matching serial self-check.
func waitSucceeded(t *testing.T, c *client.Client, id string) *api.Run {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fin, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	if fin.State != api.StateSucceeded || fin.Result == nil || !fin.Result.Match {
		t.Fatalf("run %s finished as %+v, want succeeded with matching result", id, fin)
	}
	return fin
}

// scrapeMetrics GETs base/metrics from the live process and strict-parses
// the page: any malformed line or broken histogram invariant fails the test.
func scrapeMetrics(t *testing.T, base string) map[string]*metrics.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /metrics = %d %q, want 200 text/plain", resp.StatusCode, ct)
	}
	fams, err := metrics.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("strict-parsing /metrics: %v", err)
	}
	return fams
}

var diamond = []api.Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}}

// slowSpec runs for a second or two on one dispatcher — long enough that a
// SIGKILL issued right after observing it running always lands mid-flight.
func slowSpec() api.RunSpec {
	return api.RunSpec{Shape: api.ShapePipeline, Stages: 30000, Width: 4, Work: 2500, Workers: 2}
}

// TestCrashRecovery is the acceptance test for the durable store: SIGKILL
// dagd with runs finished, running, and queued, restart it on the same
// data dir, and require that (a) terminal runs are preserved exactly and
// (b) interrupted runs are re-admitted and driven to completion.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e restart test builds and kills real processes")
	}
	dataDir := t.TempDir()
	ctx := context.Background()

	p1 := startDagd(t, dataDir)

	// Two fast runs driven to completion before the crash: one explicit,
	// one generated, per the durability contract for terminal history.
	expl, err := p1.c.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{Workload: "hashchain"})
	if err != nil {
		t.Fatalf("SubmitExplicit: %v", err)
	}
	genr, err := p1.c.Submit(ctx, api.RunSpec{Shape: api.ShapePipeline, Stages: 20, Width: 3})
	if err != nil {
		t.Fatalf("Submit(pipeline): %v", err)
	}
	explDone := waitSucceeded(t, p1.c, expl.ID)
	waitSucceeded(t, p1.c, genr.ID)

	// One slow run observed mid-execution, plus two queued behind it
	// (the single dispatcher is busy), then pull the plug.
	slow, err := p1.c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatalf("Submit(slow): %v", err)
	}
	waitState(t, p1.c, slow.ID, api.StateRunning)
	q1, err := p1.c.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("SubmitExplicit(queued): %v", err)
	}
	q2, err := p1.c.Submit(ctx, api.RunSpec{Shape: api.ShapeRandom, Nodes: 200, EdgeProb: 0.03, Seed: 11})
	if err != nil {
		t.Fatalf("Submit(queued random): %v", err)
	}
	p1.sigkill(t)

	// Restart on the same data dir.
	p2 := startDagd(t, dataDir)

	// (a) Terminal history survived, results and all.
	for _, id := range []string{expl.ID, genr.ID} {
		r, err := p2.c.Get(ctx, id)
		if err != nil {
			t.Fatalf("Get(%s) after restart: %v", id, err)
		}
		if r.State != api.StateSucceeded || r.Result == nil || !r.Result.Match {
			t.Fatalf("terminal run %s degraded across restart: %+v", id, r)
		}
		if r.Restarts != 0 {
			t.Errorf("terminal run %s has Restarts = %d, want 0", id, r.Restarts)
		}
	}
	r, err := p2.c.Get(ctx, expl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.SinkPaths != explDone.Result.SinkPaths {
		t.Errorf("explicit run result drifted: sink paths %d != %d", r.Result.SinkPaths, explDone.Result.SinkPaths)
	}
	if !r.CreatedAt.Equal(explDone.CreatedAt) {
		t.Errorf("explicit run CreatedAt drifted across restart")
	}

	// (b) Interrupted runs were re-admitted and run to completion.
	for _, interrupted := range []*api.Run{slow, q1, q2} {
		got, err := p2.c.Get(ctx, interrupted.ID)
		if err != nil {
			t.Fatalf("Get(interrupted %s): %v", interrupted.ID, err)
		}
		if got.Restarts < 1 {
			t.Errorf("interrupted run %s has Restarts = %d, want >= 1", interrupted.ID, got.Restarts)
		}
		waitSucceeded(t, p2.c, interrupted.ID)
	}

	// The full listing reads coherently from the recovered store: all five
	// runs, paginated walk equal to the one-shot list.
	all, err := p2.c.List(ctx, client.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Count != 5 {
		t.Fatalf("List after recovery has %d runs, want 5", all.Count)
	}
	var walked []string
	cursor := ""
	for {
		page, err := p2.c.List(ctx, client.ListOptions{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Runs {
			walked = append(walked, r.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(all.Runs) {
		t.Fatalf("paginated walk visited %d runs, List has %d", len(walked), len(all.Runs))
	}
	for i, r := range all.Runs {
		if walked[i] != r.ID {
			t.Fatalf("paginated walk diverged from List at %d", i)
		}
	}

	// Graceful shutdown this time, then a third boot: everything must now
	// be terminal history, with nothing left to recover.
	p2.stop(t)
	p3 := startDagd(t, dataDir)
	for _, id := range []string{expl.ID, genr.ID, slow.ID, q1.ID, q2.ID} {
		r, err := p3.c.Get(ctx, id)
		if err != nil || r.State != api.StateSucceeded {
			t.Fatalf("run %s after clean restart = %+v, %v; want succeeded", id, r, err)
		}
	}
	p3.stop(t)
}

// TestCrashRecoveryShardedFsync repeats the SIGKILL crash-recovery pass
// against the sharded group-commit configuration (-wal-shards 4 -fsync):
// terminal history and interrupted-run re-admission must survive a hard
// kill exactly as they do under the defaults, and a restart asking for a
// different shard count must refuse to load rather than split run
// histories across layouts.
func TestCrashRecoveryShardedFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e restart test builds and kills real processes")
	}
	dataDir := t.TempDir()
	ctx := context.Background()
	shardArgs := []string{"-wal-shards", "4", "-fsync"}

	p1 := startDagd(t, dataDir, shardArgs...)

	// Enough terminal runs to touch several shards (IDs are routed by
	// hash), plus one run killed mid-flight and one still queued.
	var terminal []string
	for i := 0; i < 6; i++ {
		r, err := p1.c.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
		if err != nil {
			t.Fatalf("SubmitExplicit: %v", err)
		}
		terminal = append(terminal, r.ID)
	}
	for _, id := range terminal {
		waitSucceeded(t, p1.c, id)
	}
	slow, err := p1.c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatalf("Submit(slow): %v", err)
	}
	waitState(t, p1.c, slow.ID, api.StateRunning)
	queued, err := p1.c.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("SubmitExplicit(queued): %v", err)
	}
	p1.sigkill(t)

	// A restart with a different shard count must fail closed: the process
	// exits non-zero before ever listening, naming the mismatch.
	mism := exec.Command(dagdBin, "-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-wal-shards", "2", "-fsync")
	out, err := mism.CombinedOutput()
	if err == nil {
		mism.Process.Kill()
		t.Fatalf("dagd started over a 4-shard data dir with -wal-shards 2; output:\n%s", out)
	}
	if !strings.Contains(string(out), "shard count") {
		t.Errorf("mismatch refusal doesn't name the shard count:\n%s", out)
	}

	// The matching count recovers everything.
	p2 := startDagd(t, dataDir, shardArgs...)
	for _, id := range terminal {
		r, err := p2.c.Get(ctx, id)
		if err != nil || r.State != api.StateSucceeded || r.Result == nil || !r.Result.Match {
			t.Fatalf("terminal run %s degraded across sharded restart: %+v, %v", id, r, err)
		}
	}
	for _, interrupted := range []*api.Run{slow, queued} {
		got, err := p2.c.Get(ctx, interrupted.ID)
		if err != nil {
			t.Fatalf("Get(interrupted %s): %v", interrupted.ID, err)
		}
		if got.Restarts < 1 {
			t.Errorf("interrupted run %s has Restarts = %d, want >= 1", interrupted.ID, got.Restarts)
		}
		waitSucceeded(t, p2.c, interrupted.ID)
	}
	p2.stop(t)
}

// TestRestartPreservesFsync runs a minimal durability pass with -fsync on,
// covering the flag plumbing end to end.
func TestRestartPreservesFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e restart test builds and kills real processes")
	}
	dataDir := t.TempDir()
	ctx := context.Background()

	p1 := startDagd(t, dataDir, "-fsync", "-compact-threshold", "8")
	r, err := p1.c.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSucceeded(t, p1.c, r.ID)
	p1.sigkill(t)

	p2 := startDagd(t, dataDir, "-fsync", "-compact-threshold", "8")
	got, err := p2.c.Get(ctx, r.ID)
	if err != nil || got.State != api.StateSucceeded {
		t.Fatalf("fsync'd run after SIGKILL = %+v, %v; want succeeded", got, err)
	}
	p2.stop(t)
}
