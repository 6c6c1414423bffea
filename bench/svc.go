package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/client"
)

const (
	poolSize   = 512  // distinct submissions drawn from the seed, cycled through
	warmupRuns = 200  // runs sent before timing starts
	openRate   = 50.0 // open-loop submissions per second
	sloMs      = 50.0 // an open-loop request slower than this, or failed, is over the limit
)

// tenantNames are the tenants of bench/tenants.json, weights 3:1.
var tenantNames = []string{"bench-a", "bench-b"}

// pick is one submission: what to run and for whom.
type pick struct {
	spec   api.RunSpec
	tenant int
}

// servicePool draws the traffic from seed: cmd/dagload's default mix of
// small pipelines and small random graphs over the three workloads, spread
// over the two tenants.
func servicePool(seed int64) []pick {
	rng := rand.New(rand.NewSource(seed))
	workloads := []string{"pathcount", "hashchain", "longestpath"}
	pool := make([]pick, poolSize)
	for i := range pool {
		spec := api.RunSpec{Workload: workloads[rng.Intn(len(workloads))], Work: 50}
		if rng.Intn(2) == 0 {
			spec.Shape, spec.Stages, spec.Width = api.ShapePipeline, 50, 4
		} else {
			spec.Shape, spec.Nodes, spec.EdgeProb = api.ShapeRandom, 200, 0.02
			spec.Seed = 1 + rng.Int63n(1<<30)
		}
		pool[i] = pick{spec, rng.Intn(len(tenantNames))}
	}
	return pool
}

// buildDagd compiles ./cmd/dagd into dir and reports how long that took.
func buildDagd(ctx context.Context, root, dir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(dir, "dagd")
	t := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dagd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building dagd: %v\n%s", err, out)
	}
	return bin, time.Since(t).Seconds(), nil
}

// dagd is one live dagd child process. Its output goes to a file, never a
// pipe, so the request log cannot block the server.
type dagd struct {
	cmd    *exec.Cmd
	base   string
	dir    string // log file and, with fsync, the data dir; removed by stop
	cancel context.CancelFunc
	exited chan struct{}
}

// startDagd launches dagd with its default flags plus an ephemeral -addr
// and the benchmark's tenants — and, for fsync, a fresh data dir with
// -fsync — and waits until /readyz answers 200. The child is signalled when
// ctx is cancelled; stop must still be called to reap it and remove dir.
func startDagd(ctx context.Context, cfg config, fsync bool) (*dagd, error) {
	tenants, err := filepath.Abs(filepath.Join(cfg.root, "bench", "tenants.json"))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "dagd-")
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-tenants", tenants}
	if fsync {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-fsync")
	}
	logPath := filepath.Join(dir, "dagd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor

	childCtx, cancel := context.WithCancel(ctx)
	cmd := exec.CommandContext(childCtx, cfg.dagdBin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Ask for a graceful drain first; a child still alive after WaitDelay
	// is killed.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		cancel()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting dagd: %w", err)
	}
	d := &dagd{cmd: cmd, dir: dir, cancel: cancel, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()

	if err := d.awaitReady(childCtx, logPath); err != nil {
		tail, _ := os.ReadFile(logPath)
		d.stop()
		return nil, fmt.Errorf("%w\n%s", err, tail)
	}
	return d, nil
}

// awaitReady finds the address dagd logged once bound ("dagd: listening on
// 127.0.0.1:<port>") and polls /readyz there.
func (d *dagd) awaitReady(ctx context.Context, logPath string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return errors.New("dagd exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("dagd did not become ready within 30s")
		}
		if d.base == "" {
			if log, err := os.ReadFile(logPath); err == nil {
				if _, rest, ok := strings.Cut(string(log), "listening on "); ok {
					if addr, _, ok := strings.Cut(rest, "\n"); ok {
						d.base = "http://" + strings.TrimSpace(addr)
					}
				}
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the child down, waits until it has ended and removes its
// directory. It is safe to call more than once.
func (d *dagd) stop() {
	d.cancel()
	<-d.exited
	os.RemoveAll(d.dir)
}

// scrape is one reading of dagd's /metrics: series (name plus label set,
// as printed) to value.
type scrape map[string]float64

func (d *dagd) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sum adds up every series of family name whose label set contains all the
// given `key="value"` fragments. A family dagd does not export sums to 0:
// a renamed histogram makes a metric read absent, it does not break the run.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
series:
	for key, v := range s {
		if key != name && !strings.HasPrefix(key, name+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(key, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// procCPU is the user plus system CPU time process pid has used, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields are counted after the parenthesised command name, which may
	// itself hold spaces: utime and stime are the 12th and 13th after it.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// peakRSSMB is process pid's peak resident set (VmHWM) in megabytes.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(raw), "VmHWM:")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}

// selfCPU is the user plus system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// svcEnv is a set-up service workload: a ready dagd, the traffic, one
// client per tenant and the expected result of every spec.
type svcEnv struct {
	d       *dagd
	pool    []pick
	clients []*client.Client
	check   *checker
	next    atomic.Int64 // next pool index, shared by all phases
}

// setupService is everything between process start (after the build) and
// the first timed request: spawn dagd and wait for /readyz (which is where
// a WAL opens), generate the traffic and its expected results, warm up.
func setupService(ctx context.Context, cfg config, w workload) (*svcEnv, error) {
	d, err := startDagd(ctx, cfg, w.fsync)
	if err != nil {
		return nil, err
	}
	env := &svcEnv{d: d, pool: servicePool(cfg.seed), check: newChecker()}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * cfg.clients}}
	for _, t := range tenantNames {
		env.clients = append(env.clients, client.New(d.base,
			client.WithTenant(t), client.WithHTTPClient(hc), client.WithWaitSlice(2*time.Second)))
	}
	// The expected sink value of every spec comes from executing it here,
	// in process, so dagd's answers are checked against an independent run.
	for _, p := range env.pool {
		res, err := execute(ctx, p.spec, cfg.workers)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("computing expected result of %+v: %w", p.spec, err)
		}
		env.check.expect(p.spec, res.Sink)
	}
	if err := env.sendVerified(ctx, cfg.clients, warmupRuns); err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return env, nil
}

// sendVerified sends count runs in a closed loop and fails unless every one
// of them verifies.
func (e *svcEnv) sendVerified(ctx context.Context, clients, count int) error {
	var sent atomic.Int64
	samples := e.closedLoop(ctx, clients, func() bool { return sent.Add(1) <= int64(count) })
	if err := ctx.Err(); err != nil {
		return err
	}
	if ok := e.verify(samples); len(ok) != len(samples) {
		return fmt.Errorf("%d of %d runs failed", len(samples)-len(ok), len(samples))
	}
	return nil
}

// fill brings dagd to the state a long-running service is in: holding as
// many finished runs as it retains (-retain, 4096 by default). Until then
// every completion is cheaper than it will ever be again — the store's
// eviction pass has less to walk and nothing to sort — and throughput
// falls as the history grows, so numbers taken on the way there depend on
// when they were taken. fill sends batches until the number of runs dagd
// reports holding stops growing, and returns how long that took. It gives
// up after fillLimit, so that a host too slow to fill in time still ends
// its run within the benchmark's time limit (with numbers to match).
func (e *svcEnv) fill(ctx context.Context, clients int) (seconds float64, err error) {
	const batch, fillLimit = 256, 45 * time.Second
	start := time.Now()
	held := 0.0
	for time.Since(start) < fillLimit {
		if err := e.sendVerified(ctx, clients, batch); err != nil {
			return 0, fmt.Errorf("fill: %w", err)
		}
		sc, err := e.d.scrape(ctx)
		if err != nil {
			return 0, err
		}
		now := sc.sum("dagd_runs")
		if now-held < batch/2 {
			break
		}
		held = now
	}
	seconds = time.Since(start).Seconds()
	logf("  filled dagd to its retained history (%.0f runs) in %.3f s", held, seconds)
	return seconds, nil
}

// sample is one submission as the client saw it.
type sample struct {
	pick      pick
	due       time.Time // when it was due to be sent (closed loop: when it was sent)
	sent      time.Time // just before POST /v1/runs
	submitted time.Time // POST answered
	seen      time.Time // long-poll answered with a terminal state
	run       *api.Run
	err       error
}

// oneRun submits the next submission of the pool and waits for its
// terminal state.
func (e *svcEnv) oneRun(ctx context.Context, due time.Time) sample {
	p := e.pool[int(e.next.Add(1)-1)%len(e.pool)]
	c := e.clients[p.tenant]
	s := sample{pick: p, due: due, sent: time.Now()}
	if s.due.IsZero() {
		s.due = s.sent
	}
	r, err := c.Submit(ctx, p.spec)
	s.submitted = time.Now()
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	r, err = c.Wait(ctx, r.ID)
	s.seen = time.Now()
	switch {
	case err != nil:
		s.err = fmt.Errorf("wait: %w", err)
	case r.State != api.StateSucceeded || r.Result == nil:
		s.err = fmt.Errorf("run %s ended %s: %s", r.ID, r.State, r.Error)
	}
	s.run = r
	return s
}

// closedLoop runs n callers, each sending its next request when the
// previous one has reached a terminal state, for as long as more, asked
// before every request, says so.
func (e *svcEnv) closedLoop(ctx context.Context, n int, more func() bool) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for ctx.Err() == nil && more() {
				local = append(local, e.oneRun(ctx, time.Time{}))
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// closedLoopFor is closedLoop bounded by time.
func (e *svcEnv) closedLoopFor(ctx context.Context, n int, length time.Duration) (time.Time, []sample) {
	start := time.Now()
	return start, e.closedLoop(ctx, n, func() bool { return time.Since(start) < length })
}

// openLoop sends at a fixed rate for length, whatever the server does: a
// pool of n senders takes the due times in order, each sender sleeping
// until its request is due (or sending at once when that moment has
// passed). Latency is later taken from the due time, so a stall is charged
// to every request it delayed.
func (e *svcEnv) openLoop(ctx context.Context, n int, length time.Duration) []sample {
	interval := time.Duration(float64(time.Second) / openRate)
	total := int64(length / interval)
	start := time.Now()
	var ticket atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for ctx.Err() == nil {
				i := ticket.Add(1) - 1
				if i >= total {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				local = append(local, e.oneRun(ctx, due))
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// verify checks every sample against its expected result and returns the
// ones that passed.
func (e *svcEnv) verify(samples []sample) []sample {
	ok := samples[:0:0]
	for _, s := range samples {
		var res execResult
		if s.err == nil {
			r := s.run.Result
			res = execResult{Nodes: r.Nodes, Sink: r.SinkPaths, Match: r.Match, SerialMs: r.SerialMillis, ParallelMs: r.ParallelMillis}
		}
		if e.check.check(s.pick.spec, res, s.err) {
			ok = append(ok, s)
		}
	}
	return ok
}

// dones turns verified samples into closed-loop window input.
func dones(samples []sample) []done {
	ds := make([]done, len(samples))
	for i, s := range samples {
		r := s.run.Result
		ds[i] = done{from: s.sent, at: s.seen, runs: 1, nodes: r.Nodes, serialMs: r.SerialMillis, parallelMs: r.ParallelMillis}
	}
	return ds
}

// openLoopValues fills in what an open-loop phase yields: latency from the
// due time, how late the generator ran, and the share over the limit, and
// flags a run whose numbers the generator, not the server, set.
func openLoopValues(values map[string]float64, sent int, ok []sample) {
	var lat, lag []float64
	over := sent - len(ok) // a failed request misses any limit
	for _, s := range ok {
		l := ms(s.seen.Sub(s.due))
		lat = append(lat, l)
		lag = append(lag, ms(s.sent.Sub(s.due)))
		if l > sloMs {
			over++
		}
	}
	for name, q := range map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99} {
		values["svc.open_latency_ms_"+name] = pct(lat, q)
	}
	values["loadgen.lag_ms_p99"] = pct(lag, 0.99)
	if sent > 0 {
		values["svc.over_slo_share"] = float64(over) / float64(sent)
	}
	interval := 1e3 / openRate
	logf("  open loop: %d sent at %g/s, p50 %.4f ms, p90 %.4f ms from the due time; generator lag p99 %.4f ms (interval %g ms); %d over %g ms or failed",
		sent, openRate, values["svc.open_latency_ms_p50"], values["svc.open_latency_ms_p90"], values["loadgen.lag_ms_p99"], interval, over, sloMs)
	if values["loadgen.lag_ms_p99"] > interval {
		logf("  GENERATOR-BOUND: p99 lag exceeds one send interval; the open-loop latencies measure this generator, not dagd")
	}
}

// runService runs one service workload: set-up (repeated, for setup_s) and
// the fill, then either the untraced closed loop the end-to-end metrics
// come from, or the traced pass, an open loop and the layer probes.
func runService(ctx context.Context, cfg config, w workload, trace bool) (*report, error) {
	values := map[string]float64{"proc.build_s": cfg.buildS}
	var env *svcEnv
	var setups []float64
	repeat := cfg.setups
	if trace {
		repeat = 1 // setup_s is not a traced run's to report
	}
	for i := 0; i < repeat; i++ {
		if env != nil {
			env.d.stop()
		}
		t := time.Now()
		var err error
		if env, err = setupService(ctx, cfg, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer env.d.stop()
	values["setup_s"] = median(setups)
	logf("%s: seed %d, C=%d clients, P=%d workers, dagd pid %d at %s; set-up %v s",
		w.name, cfg.seed, cfg.clients, cfg.workers, env.d.cmd.Process.Pid, env.d.base, setups)
	if cfg.fill {
		var err error
		if values["svc.fill_s"], err = env.fill(ctx, cfg.clients); err != nil {
			return nil, err
		}
	}

	if !trace {
		length := cfg.phase(1)
		start, samples := env.closedLoopFor(ctx, cfg.clients, length)
		ok := env.verify(samples)
		closedLoopValues(values, start, length, dones(ok))
		lat := make([]float64, len(ok))
		for i, s := range ok {
			lat[i] = ms(s.seen.Sub(s.sent))
		}
		latencyValues(values, lat)
		logValues(values, endToEnd)
		return &report{env.check.attempted, env.check.failed, values}, ctx.Err()
	}

	phases := []time.Duration{cfg.phase(0.2), cfg.phase(0.3), cfg.phase(0.4)}
	start, samples := env.closedLoopFor(ctx, cfg.clients, phases[0])
	closedLoopValues(values, start, phases[0], dones(env.verify(samples)))
	untraced := values["runs_per_s"]

	pid := env.d.cmd.Process.Pid
	before, err := env.d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, self0 := procCPU(pid), selfCPU()
	start, samples = env.closedLoopFor(ctx, cfg.clients, phases[1])
	cpu1, self1 := procCPU(pid), selfCPU()
	after, err := env.d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	ok := env.verify(samples)
	traced := medianRate(start, phases[1], dones(ok))
	if untraced > 0 {
		values["trace.overhead_share"] = 1 - traced/untraced
	}
	serviceLayerValues(values, ok, before, after)
	if n := float64(len(samples)); n > 0 {
		values["proc.dagd_cpu_ms_per_run"] = (cpu1 - cpu0).Seconds() * 1e3 / n
		values["proc.bench_cpu_ms_per_run"] = (self1 - self0).Seconds() * 1e3 / n
	}
	if err := traceSummary(cfg, w, "run", serviceSpans(ok), values); err != nil {
		return nil, err
	}
	// The WAL has no span of its own: from outside, its fsyncs are inside
	// queue_wait (the create record), run.execute (begin) and the
	// dispatcher's time between runs (finish, eviction).
	logf("  wal: %.4f ms of fsync per run (%.2f fsyncs of %.4f ms), against %.4f ms of dispatch.lease_wait",
		values["wal.fsync_ms_per_run"], values["wal.fsyncs_per_run"], values["wal.fsync_ms_mean"], values["dispatch.lease_wait_ms_p50"])

	samples = env.openLoop(ctx, cfg.clients, phases[2])
	openLoopValues(values, len(samples), env.verify(samples))
	values["proc.dagd_peak_rss_mb"] = peakRSSMB(pid)

	own := make([]api.RunSpec, 0, len(env.pool))
	for _, p := range env.pool {
		own = append(own, p.spec)
	}
	if err := layerProbes(ctx, cfg, own, true, values); err != nil {
		return nil, err
	}
	logValues(values, perLayer)
	return &report{env.check.attempted, env.check.failed, values}, ctx.Err()
}

// serviceLayerValues fills in the per-layer metrics of the traced closed
// loop: client-side spans, the run snapshots' lifecycle timestamps and
// result, and the deltas of dagd's own counters across the pass.
func serviceLayerValues(values map[string]float64, ok []sample, before, after scrape) {
	var rtt, deliver, queue, lease, exec, other, serial, parallel []float64
	var nodes int
	var serialTotal float64
	for _, s := range ok {
		r := s.run
		if r.DispatchedAt == nil || r.StartedAt == nil || r.FinishedAt == nil {
			continue
		}
		e := ms(r.FinishedAt.Sub(*r.StartedAt))
		rtt = append(rtt, ms(s.submitted.Sub(s.sent)))
		deliver = append(deliver, ms(s.seen.Sub(*r.FinishedAt)))
		queue = append(queue, ms(r.DispatchedAt.Sub(r.CreatedAt)))
		lease = append(lease, ms(r.StartedAt.Sub(*r.DispatchedAt)))
		exec = append(exec, e)
		other = append(other, e-r.Result.SerialMillis-r.Result.ParallelMillis)
		serial = append(serial, r.Result.SerialMillis)
		parallel = append(parallel, r.Result.ParallelMillis)
		nodes += r.Result.Nodes
		serialTotal += r.Result.SerialMillis
	}
	values["client.submit_rtt_ms_p50"] = pct(rtt, 0.5)
	values["server.deliver_ms_p50"] = pct(deliver, 0.5)
	values["dispatch.queue_wait_ms_p50"] = pct(queue, 0.5)
	values["dispatch.queue_wait_ms_p99"] = pct(queue, 0.99)
	values["dispatch.lease_wait_ms_p50"] = pct(lease, 0.5)
	values["run.execute_ms_p50"] = pct(exec, 0.5)
	values["run.execute_other_ms_p50"] = pct(other, 0.5)
	values["sched.serial_ms_p50"] = pct(serial, 0.5)
	values["sched.parallel_ms_p50"] = pct(parallel, 0.5)
	if nodes > 0 {
		values["sched.serial_ns_per_node"] = serialTotal * 1e6 / float64(nodes)
	}

	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	post := []string{`route="/v1/runs"`, `method="POST"`}
	get := []string{`route="/v1/runs/{id}"`, `method="GET"`}
	values["server.http_ms_mean.submit"] = 1e3 * ratio(delta("dagd_http_request_seconds_sum", post...), delta("dagd_http_request_seconds_count", post...))
	values["server.http_ms_mean.get"] = 1e3 * ratio(delta("dagd_http_request_seconds_sum", get...), delta("dagd_http_request_seconds_count", get...))
	runs := delta("dagd_runs_completed_total")
	values["sched.nodes_per_run"] = ratio(delta("dagd_sched_nodes_executed_total"), runs)
	values["sched.steals_per_run"] = ratio(delta("dagd_sched_steals_total"), runs)
	fsyncs := delta("dagd_wal_fsyncs_total")
	values["wal.appends_per_run"] = ratio(delta("dagd_wal_appends_total"), runs)
	values["wal.fsyncs_per_run"] = ratio(fsyncs, runs)
	values["wal.fsync_ms_mean"] = 1e3 * ratio(delta("dagd_wal_fsync_seconds_sum"), fsyncs)
	values["wal.fsync_ms_per_run"] = 1e3 * ratio(delta("dagd_wal_fsync_seconds_sum"), runs)
	values["wal.commit_batch_mean"] = ratio(delta("dagd_wal_commit_batch_size_sum"), delta("dagd_wal_commit_batch_size_count"))
}

// serviceSpans lays one run's life out as spans that tile submit→terminal:
// the client's submission up to the moment the store stamped created_at,
// the two waits the lifecycle timestamps bound, execution (with the serial
// and parallel passes the result reports placed inside it), and delivery
// of the terminal state back to the client. Both clocks are this machine's.
func serviceSpans(ok []sample) []span {
	var out []span
	for _, s := range ok {
		r := s.run
		if r.DispatchedAt == nil || r.StartedAt == nil || r.FinishedAt == nil {
			continue
		}
		edges := []int64{s.sent.UnixNano(), r.CreatedAt.UnixNano(), r.DispatchedAt.UnixNano(),
			r.StartedAt.UnixNano(), r.FinishedAt.UnixNano(), s.seen.UnixNano()}
		for i := 1; i < len(edges); i++ {
			edges[i] = max(edges[i], edges[i-1])
		}
		out = append(out, span{Run: r.ID, Name: "run", Start: edges[0], End: edges[5]})
		for i, name := range []string{"client.submit", "dispatch.queue_wait", "dispatch.lease_wait", "run.execute", "server.deliver"} {
			out = append(out, span{Run: r.ID, Name: name, Parent: "run", Start: edges[i], End: edges[i+1]})
		}
		serialEnd := edges[3] + int64(r.Result.SerialMillis*1e6)
		out = append(out,
			span{Run: r.ID, Name: "sched.serial", Parent: "run.execute", Start: edges[3], End: serialEnd},
			span{Run: r.ID, Name: "sched.parallel", Parent: "run.execute", Start: serialEnd, End: serialEnd + int64(r.Result.ParallelMillis*1e6)})
	}
	return out
}
