package e2e

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/client"
)

// TestCrashRecoveryPreservesTenants is the multi-tenant durability
// acceptance test: SIGKILL a dagd with runs from two tenants in flight and
// queued, restart on the same data dir and tenant config, and require that
// every re-admitted run keeps its tenant attribution and drains through
// its own tenant's queue.
func TestCrashRecoveryPreservesTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e restart test builds and kills real processes")
	}
	dataDir := t.TempDir()
	cfgPath := filepath.Join(t.TempDir(), "tenants.json")
	cfg := `{"tenants":[{"name":"alpha","weight":1},{"name":"beta","weight":2}]}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	p1 := startDagd(t, dataDir, "-tenants", cfgPath)
	alpha1 := client.New(p1.base, client.WithTenant("alpha"), client.WithWaitSlice(200*time.Millisecond))
	beta1 := client.New(p1.base, client.WithTenant("beta"), client.WithWaitSlice(200*time.Millisecond))

	// Pre-crash terminal history carrying a tenant.
	done, err := beta1.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSucceeded(t, beta1, done.ID)

	// alpha holds the single dispatcher with a slow run; both tenants
	// queue work behind it, then the process dies.
	slow, err := alpha1.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p1.c, slow.ID, api.StateRunning)
	alphaQ, err := alpha1.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	betaQ1, err := beta1.SubmitExplicit(ctx, 4, diamond, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	betaQ2, err := beta1.Submit(ctx, api.RunSpec{Shape: api.ShapePipeline, Stages: 20, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	p1.sigkill(t)

	p2 := startDagd(t, dataDir, "-tenants", cfgPath)

	// Attribution survived the crash on every record, terminal and
	// re-admitted alike.
	wantTenant := map[string]string{
		done.ID:   "beta",
		slow.ID:   "alpha",
		alphaQ.ID: "alpha",
		betaQ1.ID: "beta",
		betaQ2.ID: "beta",
	}
	for id, want := range wantTenant {
		r, err := p2.c.Get(ctx, id)
		if err != nil {
			t.Fatalf("Get(%s) after restart: %v", id, err)
		}
		if r.Spec.Tenant != want {
			t.Errorf("run %s tenant after restart = %q, want %q", id, r.Spec.Tenant, want)
		}
	}

	// Re-admitted runs sit in their *own* tenants' queues: while the
	// recovered slow alpha run occupies the dispatcher, beta's two runs
	// are queued under beta (and alpha's one under alpha). The slow run
	// takes seconds, so one observation right after boot is reliable —
	// but skip the count check gracefully if it already finished.
	if r, err := p2.c.Get(ctx, slow.ID); err == nil && r.State == api.StateRunning {
		fams := scrapeMetrics(t, p2.base)
		queued := func(tn string) float64 { return tenantSum(fams["dagd_queue_depth"], tn) }
		if n := queued("beta"); n != 2 {
			t.Errorf("beta queue after recovery holds %v runs, want 2", n)
		}
		if q, f := queued("alpha"), tenantSum(fams["dagd_inflight_runs"], "alpha"); q != 1 || f != 1 {
			t.Errorf("alpha after recovery = %v queued + %v in flight, want 1 queued + 1 in flight", q, f)
		}
	} else {
		t.Logf("slow run not running at observation time (%v); skipping queue-count check", err)
	}

	// Everything drains to success with attribution intact.
	for _, id := range []string{slow.ID, alphaQ.ID, betaQ1.ID, betaQ2.ID} {
		fin := waitSucceeded(t, p2.c, id)
		if fin.Restarts < 1 {
			t.Errorf("recovered run %s has Restarts = %d, want >= 1", id, fin.Restarts)
		}
		if fin.Spec.Tenant != wantTenant[id] {
			t.Errorf("run %s tenant after completion = %q, want %q", id, fin.Spec.Tenant, wantTenant[id])
		}
	}

	// The tenant filter reads coherently from the recovered store.
	page, err := p2.c.List(ctx, client.ListOptions{Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 3 {
		t.Errorf("List(tenant=beta) after recovery = %d runs, want 3", page.Count)
	}
	p2.stop(t)
}
