// Command dagd is the long-running DAG execution service: it accepts run
// specs over a JSON HTTP API, executes them concurrently through the
// work-stealing scheduler, and tracks each run's lifecycle
// (queued → running → succeeded|failed|cancelled) in a run store — in
// memory by default, or durable with -data-dir, which logs every state
// transition to a checksummed write-ahead log and recovers it on boot:
// finished runs are restored as history and interrupted runs re-execute.
// Each spec may name any built-in workload (hashchain, longestpath,
// pathcount); specs that name none get pathcount.
//
// Usage:
//
//	dagd -addr :8080 -queue 256 -dispatchers 4
//	dagd -data-dir /var/lib/dagd            # survive restarts
//	dagd -data-dir /var/lib/dagd -fsync     # survive power loss too
//	dagd -tenants tenants.json              # multi-tenant fair scheduling
//	dagd -fleet-addr :8081                  # lease runs to dagworker fleet
//
// With -tenants, submissions are attributed to the tenant named by the
// X-Tenant request header (absent = "default") and scheduled by weighted
// deficit round-robin with priority classes, per-tenant quotas, and
// token-bucket rate limits (429 + Retry-After past them).
//
// With -fleet-addr, dagd becomes a coordinator: it stops executing runs
// in-process and instead serves the internal worker API on that address,
// leasing ready runs to dagworker processes. A lease not heartbeated
// within -lease-ttl is requeued (restarts++) for a surviving worker.
// Without -fleet-addr nothing changes — runs execute embedded as before.
//
// Submit and poll with curl (or use the typed client in pkg/client):
//
//	curl -s localhost:8080/v1/workloads
//	curl -s -X POST localhost:8080/v1/runs -H 'Content-Type: application/json' \
//	    -d '{"shape":"pipeline","stages":100,"width":4}'
//	curl -s -X POST localhost:8080/v1/runs -H 'Content-Type: application/json' \
//	    -d '{"shape":"explicit","nodes":4,"edges":[[0,1],[0,2],[1,3],[2,3]]}'
//	curl -s 'localhost:8080/v1/runs/<id>?wait=5s'
//	curl -s 'localhost:8080/v1/runs?limit=10'
//
// Errors are structured: {"error":{"code":"invalid_spec",...}} — see
// pkg/api for the full code table. SIGINT/SIGTERM trigger a graceful
// shutdown that flips /readyz to 503 and drains in-flight runs for up to
// -drain-timeout before force-cancelling them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/fleet"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/sched"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/server"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		queueDepth   = flag.Int("queue", 256, "dispatch queue depth (max waiting runs)")
		dispatchers  = flag.Int("dispatchers", 0, "concurrent run executions (0 = NumCPU)")
		runWorkers   = flag.Int("run-workers", 0, "default scheduler pool size per run (0 = NumCPU); a run with work below the serial grain ("+strconv.Itoa(sched.SerialGrain)+") is walked on one goroutine instead")
		retainRuns   = flag.Int("retain", 0, "terminal runs to keep, oldest evicted first (0 = 4096, negative = unlimited)")
		dataDir      = flag.String("data-dir", "", "directory for the durable run WAL; empty = in-memory store (state lost on restart)")
		fsync        = flag.Bool("fsync", false, "fsync the WAL before acknowledging each transition (needs -data-dir); off = durable against crash, not power loss")
		compactEvery = flag.Int("compact-threshold", 0, "WAL records between compactions into a snapshot file (0 = 4096, negative = never; needs -data-dir)")
		tenantsFile  = flag.String("tenants", "", "JSON tenant config file (weights, priorities, quotas, rate limits); empty = single default tenant")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight runs on shutdown")
		debugAddr    = flag.String("debug-addr", "", "optional second listener serving net/http/pprof, expvar, and /metrics; keep it private — it exposes profiles and runtime internals")
		fleetAddr    = flag.String("fleet-addr", "", "listener for the internal worker API; set to lease runs to dagworker processes instead of executing in-process")
		leaseTTL     = flag.Duration("lease-ttl", 0, "how long a worker lease survives without a heartbeat before its run is requeued; workers heartbeat at a fifth of it (0 = "+fleet.DefaultLeaseTTL.String()+"; needs -fleet-addr)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *dataDir == "" && (*fsync || *compactEvery != 0) {
		fmt.Fprintln(os.Stderr, "dagd: -fsync and -compact-threshold require -data-dir")
		os.Exit(2)
	}
	if *fleetAddr == "" && *leaseTTL != 0 {
		fmt.Fprintln(os.Stderr, "dagd: -lease-ttl requires -fleet-addr")
		os.Exit(2)
	}
	if *leaseTTL != 0 && *leaseTTL < 5*time.Millisecond {
		// Workers are told the heartbeat in whole milliseconds.
		fmt.Fprintln(os.Stderr, "dagd: -lease-ttl must be at least 5ms")
		os.Exit(2)
	}
	var tenants []tenant.Config
	if *tenantsFile != "" {
		var err error
		if tenants, err = tenant.LoadFile(*tenantsFile); err != nil {
			fmt.Fprintln(os.Stderr, "dagd:", err)
			os.Exit(2)
		}
		log.Printf("dagd: loaded %d tenant configs from %s", len(tenants), *tenantsFile)
	}
	svc, err := core.NewService(core.ServiceOptions{
		QueueDepth:        *queueDepth,
		Dispatchers:       *dispatchers,
		DefaultRunWorkers: *runWorkers,
		RetainRuns:        *retainRuns,
		DataDir:           *dataDir,
		Fsync:             *fsync,
		CompactThreshold:  *compactEvery,
		Tenants:           tenants,
		Remote:            *fleetAddr != "",
		LeaseTTL:          *leaseTTL,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagd:", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		log.Printf("dagd: durable store at %s (%d runs restored, %d interrupted runs re-admitted)",
			*dataDir, svc.Store.Len(), svc.Recovered())
	}
	srv := server.New(svc)
	if *debugAddr != "" {
		if _, err := serveSide("debug", "pprof, expvar, /metrics", *debugAddr, debugHandler(srv)); err != nil {
			fmt.Fprintln(os.Stderr, "dagd:", err)
			os.Exit(1)
		}
	}
	if *fleetAddr != "" {
		fleetSrv, err := serveSide("fleet", "worker API", *fleetAddr, svc.FleetHandler())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dagd:", err)
			os.Exit(1)
		}
		// The fleet listener outlives ctx: during the drain that follows
		// SIGTERM, workers must still heartbeat and report results for the
		// dispatcher to reach empty. It closes only when serve returns.
		defer fleetSrv.Close()
	}
	err = srv.ListenAndServe(ctx, *addr, *drainTimeout)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dagd:", err)
		os.Exit(1)
	}
}
