// Package client is the typed Go client for the dagd v1 API. It speaks
// the wire contract defined in pkg/api: every non-2xx response is decoded
// from the structured error envelope into an *api.Error whose Unwrap maps
// the machine-readable code back to a sentinel, so callers branch with
// errors.Is(err, api.ErrQueueFull) instead of inspecting status codes or
// message text.
//
//	c := client.New("http://127.0.0.1:8080")
//	r, err := c.SubmitExplicit(ctx, 4, []api.Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
//		client.SubmitOptions{Workload: "hashchain"})
//	if err != nil { ... }
//	r, err = c.Wait(ctx, r.ID) // long-polls ?wait=, no busy loop
//
// Wait builds on the server's GET /v1/runs/{id}?wait= long-poll: each
// round parks server-side until the run finishes or the wait slice
// elapses, so waiting costs one idle HTTP request per slice rather than a
// tight polling loop.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// Client talks to one dagd base URL. It is safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	waitSlice time.Duration
	tenant    string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every request
// (timeouts, transports, test doubles). Note that an http.Client.Timeout
// must exceed the wait slice or long-polls will be cut short.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTenant sets the X-Tenant header on every request, identifying which
// tenant's quotas, rate limits, and fair-share weight the client's
// submissions are accounted against. An empty name (the default) means the
// server's catch-all "default" tenant.
func WithTenant(name string) Option {
	return func(c *Client) { c.tenant = name }
}

// WithWaitSlice sets the per-round long-poll duration Wait passes as
// ?wait= (default 1s, server-capped at 30s). Non-positive values are
// ignored: a zero slice would degrade Wait into an unthrottled busy-loop
// and a negative one would be rejected by the server.
func WithWaitSlice(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.waitSlice = d
		}
	}
}

// New returns a Client for the dagd at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        http.DefaultClient,
		waitSlice: time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request and decodes the response into out (unless nil).
// Non-2xx responses become *api.Error values when the body carries the
// envelope, or a plain error otherwise.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any) error {
	var rdr io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rdr = bytes.NewReader(buf)
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rdr)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// decodeError turns a non-2xx response into an *api.Error (when the body
// is the structured envelope) or a descriptive plain error.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.HTTPStatus = resp.StatusCode
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			// dagd always sends delay-seconds (never an HTTP-date).
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				env.Error.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return env.Error
	}
	return fmt.Errorf("client: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
}

// SubmitOptions carries the execution knobs shared by every shape.
type SubmitOptions struct {
	Workload string // built-in workload name; "" = server default
	Work     int    // busy-work iterations per node
	Workers  int    // per-run scheduler pool size; 0 = server default
}

// Submit submits any run spec and returns the queued run snapshot.
func (c *Client) Submit(ctx context.Context, spec api.RunSpec) (*api.Run, error) {
	var r api.Run
	if err := c.do(ctx, http.MethodPost, "/v1/runs", nil, spec, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// SubmitExplicit submits a client-authored DAG: nodes identified 0..n-1
// and exactly the given edges. The server validates bounds, edge sanity
// (range, self-loops, duplicates), and acyclicity at admission; a bad
// graph fails with api.ErrInvalidSpec before anything executes.
func (c *Client) SubmitExplicit(ctx context.Context, nodes int, edges []api.Edge, opts SubmitOptions) (*api.Run, error) {
	return c.Submit(ctx, api.RunSpec{
		Shape:    api.ShapeExplicit,
		Nodes:    nodes,
		Edges:    edges,
		Workload: opts.Workload,
		Work:     opts.Work,
		Workers:  opts.Workers,
	})
}

// Get fetches one run's current snapshot.
func (c *Client) Get(ctx context.Context, id string) (*api.Run, error) {
	var r api.Run
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// GetWait fetches one run, long-polling server-side for up to wait (the
// server caps it at 30s) before returning the latest snapshot, which may
// still be non-terminal.
func (c *Client) GetWait(ctx context.Context, id string, wait time.Duration) (*api.Run, error) {
	q := url.Values{"wait": {wait.String()}}
	var r api.Run
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), q, nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Wait blocks until the run reaches a terminal state or ctx is done,
// long-polling GetWait in waitSlice rounds. On ctx expiry it returns the
// last snapshot seen alongside ctx's error.
func (c *Client) Wait(ctx context.Context, id string) (*api.Run, error) {
	var last *api.Run
	for {
		r, err := c.GetWait(ctx, id, c.waitSlice)
		if err != nil {
			// Attribute hangups at the deadline to the caller's ctx.
			if ctx.Err() != nil {
				return last, ctx.Err()
			}
			return nil, err
		}
		if r.State.Terminal() {
			return r, nil
		}
		last = r
		if err := ctx.Err(); err != nil {
			return last, err
		}
	}
}

// ListOptions selects and pages GET /v1/runs.
type ListOptions struct {
	State  string // filter by lifecycle state name; "" = all
	Tenant string // filter by owning tenant name; "" = all
	Limit  int    // page size; 0 = everything in one response
	Cursor string // resume token from a previous page's NextCursor
}

// List returns one page of runs in stable (creation time, ID) order.
// Follow page.NextCursor until it is empty.
func (c *Client) List(ctx context.Context, opts ListOptions) (*api.RunList, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", opts.State)
	}
	if opts.Tenant != "" {
		q.Set("tenant", opts.Tenant)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	var page api.RunList
	if err := c.do(ctx, http.MethodGet, "/v1/runs", q, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Cancel requests cancellation of a queued or running run and returns its
// snapshot (which may still be "running" until the dispatcher observes
// the cancellation). Cancelling a finished run fails with
// api.ErrRunTerminal.
func (c *Client) Cancel(ctx context.Context, id string) (*api.Run, error) {
	var r api.Run
	if err := c.do(ctx, http.MethodPost, "/v1/runs/"+url.PathEscape(id)+"/cancel", nil, nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Workloads lists the built-in workload names and the server default.
func (c *Client) Workloads(ctx context.Context) (*api.WorkloadList, error) {
	var wl api.WorkloadList
	if err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, nil, &wl); err != nil {
		return nil, err
	}
	return &wl, nil
}
