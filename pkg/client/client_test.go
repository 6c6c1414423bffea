package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/core"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/server"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// diamond is a 4-node DAG with two source→sink paths.
var diamond = []api.Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}}

// newClient stands up a real service + server and returns a client bound
// to it.
func newClient(t *testing.T, opts core.ServiceOptions) *Client {
	t.Helper()
	svc, err := core.NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return New(ts.URL, WithWaitSlice(100*time.Millisecond))
}

// TestExplicitAllWorkloads is the acceptance-criteria test: an explicit
// DAG submitted through pkg/client executes under every registered
// workload with the serial self-check matching.
func TestExplicitAllWorkloads(t *testing.T) {
	c := newClient(t, core.ServiceOptions{QueueDepth: 8, Dispatchers: 2})
	ctx := context.Background()
	wl, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Default == "" || len(wl.Workloads) < 3 {
		t.Fatalf("workloads = %+v, want >= 3 with a default", wl)
	}
	for _, name := range wl.Workloads {
		if name == "broken-for-test" { // registered by internal/run's tests when run together
			continue
		}
		r, err := c.SubmitExplicit(ctx, 4, diamond, SubmitOptions{Workload: name, Work: 5})
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		if r.State != api.StateQueued || r.ID == "" {
			t.Fatalf("workload %s: submitted run = %+v, want queued with ID", name, r)
		}
		r, err = c.Wait(ctx, r.ID)
		if err != nil {
			t.Fatalf("workload %s: Wait: %v", name, err)
		}
		if r.State != api.StateSucceeded {
			t.Fatalf("workload %s: state %s (error %q)", name, r.State, r.Error)
		}
		if r.Result == nil || !r.Result.Match {
			t.Errorf("workload %s: self-check did not match: %+v", name, r.Result)
		}
		if r.Result.Workload != name {
			t.Errorf("result workload = %q, want %q", r.Result.Workload, name)
		}
		if r.Result.Nodes != 4 || r.Result.Edges != 4 {
			t.Errorf("workload %s: nodes/edges = %d/%d, want 4/4", name, r.Result.Nodes, r.Result.Edges)
		}
	}
}

// TestErrorDecoding pins that API failures surface as sentinel-matchable
// *api.Error values.
func TestErrorDecoding(t *testing.T) {
	c := newClient(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	ctx := context.Background()

	// Cyclic explicit graph → invalid_spec.
	_, err := c.SubmitExplicit(ctx, 3, []api.Edge{{0, 1}, {1, 2}, {2, 0}}, SubmitOptions{})
	if !errors.Is(err, api.ErrInvalidSpec) {
		t.Errorf("cyclic spec error = %v, want api.ErrInvalidSpec", err)
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *api.Error", err)
	}
	if apiErr.Code != api.CodeInvalidSpec || apiErr.HTTPStatus != 400 {
		t.Errorf("apiErr = code %s status %d, want invalid_spec/400", apiErr.Code, apiErr.HTTPStatus)
	}

	// Unknown workload → unknown_workload.
	_, err = c.Submit(ctx, api.RunSpec{Shape: api.ShapePipeline, Stages: 3, Width: 2, Workload: "bogus"})
	if !errors.Is(err, api.ErrUnknownWorkload) {
		t.Errorf("bogus workload error = %v, want api.ErrUnknownWorkload", err)
	}

	// Missing run → not_found, from Get, Wait, and Cancel alike.
	if _, err := c.Get(ctx, "r999999-deadbeef"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("Get(missing) = %v, want api.ErrNotFound", err)
	}
	if _, err := c.Wait(ctx, "r999999-deadbeef"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("Wait(missing) = %v, want api.ErrNotFound", err)
	}
	if _, err := c.Cancel(ctx, "r999999-deadbeef"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("Cancel(missing) = %v, want api.ErrNotFound", err)
	}
}

// TestCancelFlow drives submit → cancel → wait-to-cancelled through the
// client, then checks that re-cancelling maps to api.ErrRunTerminal.
func TestCancelFlow(t *testing.T) {
	c := newClient(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	ctx := context.Background()
	r, err := c.Submit(ctx, api.RunSpec{Shape: api.ShapePipeline, Stages: 40000, Width: 4, Work: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, r.ID); err != nil {
		t.Fatal(err)
	}
	r, err = c.Wait(ctx, r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != api.StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", r.State)
	}
	if _, err := c.Cancel(ctx, r.ID); !errors.Is(err, api.ErrRunTerminal) {
		t.Errorf("cancel terminal run = %v, want api.ErrRunTerminal", err)
	}
}

// TestWaitContext pins that Wait honors its context on runs that never
// finish.
func TestWaitContext(t *testing.T) {
	c := newClient(t, core.ServiceOptions{QueueDepth: 4, Dispatchers: 1})
	bg := context.Background()
	// One slow run occupies the single dispatcher; the second stays queued.
	blocker, err := c.Submit(bg, api.RunSpec{Shape: api.ShapePipeline, Stages: 40000, Width: 4, Work: 2000})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(bg, api.RunSpec{Shape: api.ShapePipeline, Stages: 10, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 300*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, queued.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait on stuck run = %v, want DeadlineExceeded", err)
	}
	if _, err := c.Cancel(bg, blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestListPagination walks pages through the client and checks the union
// matches a single full listing, including the state filter.
func TestListPagination(t *testing.T) {
	c := newClient(t, core.ServiceOptions{QueueDepth: 16, Dispatchers: 2})
	ctx := context.Background()
	const total = 5
	for i := 0; i < total; i++ {
		r, err := c.Submit(ctx, api.RunSpec{Shape: api.ShapePipeline, Stages: 10, Width: 2, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, r.ID); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.List(ctx, ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count != total || len(full.Runs) != total || full.NextCursor != "" {
		t.Fatalf("full list = count %d, cursor %q; want %d, empty", full.Count, full.NextCursor, total)
	}
	var fullIDs []string
	for _, r := range full.Runs {
		fullIDs = append(fullIDs, r.ID)
	}

	var pagedIDs []string
	cursor := ""
	for {
		page, err := c.List(ctx, ListOptions{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Runs) > 2 {
			t.Fatalf("page has %d runs, limit 2", len(page.Runs))
		}
		for _, r := range page.Runs {
			pagedIDs = append(pagedIDs, r.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if !reflect.DeepEqual(pagedIDs, fullIDs) {
		t.Errorf("paged %v != full %v", pagedIDs, fullIDs)
	}

	succeeded, err := c.List(ctx, ListOptions{State: "succeeded"})
	if err != nil || succeeded.Count != total {
		t.Errorf("state filter = %+v, %v; want %d succeeded", succeeded, err, total)
	}
	if _, err := c.List(ctx, ListOptions{State: "bogus"}); !errors.Is(err, api.ErrInvalidRequest) {
		t.Errorf("bogus state filter = %v, want api.ErrInvalidRequest", err)
	}
}

// TestWaitSliceGuard pins that non-positive wait slices are ignored
// rather than turning Wait into an unthrottled busy-loop.
func TestWaitSliceGuard(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		c := New("http://example.invalid", WithWaitSlice(d))
		if c.waitSlice != time.Second {
			t.Errorf("WithWaitSlice(%v) set slice %v, want default 1s", d, c.waitSlice)
		}
	}
	if c := New("http://example.invalid", WithWaitSlice(5*time.Second)); c.waitSlice != 5*time.Second {
		t.Errorf("WithWaitSlice(5s) not applied: %v", c.waitSlice)
	}
}

// TestWireCompat pins that the server's run JSON (internal/run types)
// decodes losslessly into the public api.Run shape, so pkg/api can never
// drift from what dagd actually serves.
func TestWireCompat(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	info := run.Run{
		ID: "r000001-aabbccdd",
		Spec: run.Spec{
			Config: gen.Config{
				Shape: gen.Explicit,
				Nodes: 4,
				Edges: []gen.Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
			},
			Workload: "hashchain",
			Work:     7,
			Workers:  3,
		},
		State:     run.StateSucceeded,
		CreatedAt: now,
		Result: &run.Result{
			Workload: "hashchain", Nodes: 4, Edges: 4, Depth: 2,
			Workers: 3, SinkPaths: 99, Match: true,
		},
	}
	blob, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var got api.Run
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatalf("server JSON does not decode into api.Run: %v\n%s", err, blob)
	}
	want := api.Run{
		ID: "r000001-aabbccdd",
		Spec: api.RunSpec{
			Shape: api.ShapeExplicit, Nodes: 4,
			Edges:    []api.Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
			Workload: "hashchain", Work: 7, Workers: 3,
		},
		State:     api.StateSucceeded,
		CreatedAt: now,
		Result: &api.Result{
			Workload: "hashchain", Nodes: 4, Edges: 4, Depth: 2,
			Workers: 3, SinkPaths: 99, Match: true,
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded api.Run:\n%+v\nwant:\n%+v", got, want)
	}
	// And the reverse: an api.RunSpec marshals into exactly what the
	// server's admission decoder (DisallowUnknownFields) accepts.
	specBlob, err := json.Marshal(want.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var serverSpec run.Spec
	if err := unmarshalStrict(specBlob, &serverSpec); err != nil {
		t.Fatalf("api.RunSpec JSON rejected by server decoding: %v\n%s", err, specBlob)
	}
	if !reflect.DeepEqual(serverSpec, info.Spec) {
		t.Errorf("server decoded %+v, want %+v", serverSpec, info.Spec)
	}
}

func unmarshalStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestWireFieldConformance enforces that the hand-mirrored public types
// in pkg/api expose exactly the JSON fields of the internal wire types,
// so adding a field on either side without the other fails here instead
// of surfacing as a mysterious 400 (server DisallowUnknownFields) or a
// knob the typed client cannot express.
func TestWireFieldConformance(t *testing.T) {
	cases := []struct {
		name             string
		internal, public any
	}{
		{"RunSpec", run.Spec{}, api.RunSpec{}},
		{"Run", run.Run{}, api.Run{}},
		{"Result", run.Result{}, api.Result{}},
	}
	for _, tc := range cases {
		in, pub := jsonFieldSet(t, tc.internal), jsonFieldSet(t, tc.public)
		if !reflect.DeepEqual(in, pub) {
			t.Errorf("%s: internal JSON fields %v != public %v", tc.name, in, pub)
		}
	}
}

// jsonFieldSet returns the sorted JSON field names of v, flattening
// embedded structs the way encoding/json does.
func jsonFieldSet(t *testing.T, v any) []string {
	t.Helper()
	var collect func(rt reflect.Type) []string
	collect = func(rt reflect.Type) []string {
		var names []string
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct && f.Tag.Get("json") == "" {
				names = append(names, collect(f.Type)...)
				continue
			}
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "-" {
				continue
			}
			if tag == "" {
				tag = f.Name
			}
			names = append(names, tag)
		}
		return names
	}
	names := collect(reflect.TypeOf(v))
	sort.Strings(names)
	return names
}

// newServerURL stands up a real service + server and returns its base URL,
// for tests that need several differently-configured clients against one
// dagd.
func newServerURL(t *testing.T, opts core.ServiceOptions) string {
	t.Helper()
	svc, err := core.NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return ts.URL
}

// TestWithTenant: the client's tenant option rides every request as the
// X-Tenant header, attribution comes back on the run, and ListOptions.
// Tenant filters server-side.
func TestWithTenant(t *testing.T) {
	url := newServerURL(t, core.ServiceOptions{
		QueueDepth:  8,
		Dispatchers: 2,
		Tenants:     []tenant.Config{{Name: "alpha", Priority: 1}},
	})
	ctx := context.Background()
	alpha := New(url, WithTenant("alpha"), WithWaitSlice(100*time.Millisecond))
	anon := New(url, WithWaitSlice(100*time.Millisecond))

	r, err := alpha.SubmitExplicit(ctx, 4, diamond, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Tenant != "alpha" || r.Spec.Priority != 1 {
		t.Errorf("alpha-client run attribution = %q/%d, want alpha/1", r.Spec.Tenant, r.Spec.Priority)
	}
	a, err := anon.SubmitExplicit(ctx, 4, diamond, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec.Tenant != "default" {
		t.Errorf("anonymous run attribution = %q, want default", a.Spec.Tenant)
	}
	if _, err := alpha.Wait(ctx, r.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := anon.Wait(ctx, a.ID); err != nil {
		t.Fatal(err)
	}

	page, err := anon.List(ctx, ListOptions{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 1 || page.Runs[0].ID != r.ID {
		t.Errorf("List(tenant=alpha) = %d runs, want exactly the alpha run", page.Count)
	}
}

// TestRetryAfterDecoding: a 429 from the tenant rate limiter decodes into
// an *api.Error matching api.ErrRateLimited, with the Retry-After header
// parsed into the error.
func TestRetryAfterDecoding(t *testing.T) {
	url := newServerURL(t, core.ServiceOptions{
		QueueDepth:  8,
		Dispatchers: 1,
		Tenants:     []tenant.Config{{Name: "limited", SubmitRate: 0.01, SubmitBurst: 1}},
	})
	ctx := context.Background()
	c := New(url, WithTenant("limited"))

	if _, err := c.SubmitExplicit(ctx, 4, diamond, SubmitOptions{}); err != nil {
		t.Fatalf("first submit within burst: %v", err)
	}
	_, err := c.SubmitExplicit(ctx, 4, diamond, SubmitOptions{})
	if !errors.Is(err, api.ErrRateLimited) {
		t.Fatalf("over-rate submit = %v, want api.ErrRateLimited", err)
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *api.Error", err)
	}
	if apiErr.HTTPStatus != 429 {
		t.Errorf("HTTPStatus = %d, want 429", apiErr.HTTPStatus)
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want the parsed Retry-After header (> 0)", apiErr.RetryAfter)
	}
	if apiErr.Details["tenant"] != "limited" {
		t.Errorf("details.tenant = %v, want limited", apiErr.Details["tenant"])
	}
}
