// Package api defines the public wire contract of the dagd v1 HTTP API:
// the JSON shapes for run specs, runs, and list pages; the structured
// error envelope with its machine-readable code table; and the sentinel
// errors each code decodes back to. The error surface (codes, envelope,
// sentinels) is shared directly by the server (internal/server) and the
// typed client (pkg/client). The run/spec types deliberately mirror the
// internal service types rather than aliasing them — the public surface
// must not expose internal packages — and conformance tests in pkg/client
// hold the two JSON field sets together.
//
// Every 4xx/5xx response carries the envelope
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// where code is one of the Code constants below. Clients should branch on
// the code (or on the sentinel errors via errors.Is), never on message
// text.
package api

import (
	"errors"
	"fmt"
	"time"
)

// Code is a machine-readable error category, stable across releases.
type Code string

// The v1 error code table.
const (
	// CodeInvalidRequest: the request itself is malformed — unparseable
	// JSON, unknown fields, or bad query parameters (cursor, limit, wait,
	// state). HTTP 400.
	CodeInvalidRequest Code = "invalid_request"
	// CodeInvalidSpec: the spec parsed but is structurally invalid — bounds
	// violations, bad shapes, or a malformed explicit graph (self-loop,
	// duplicate/out-of-range edge, cycle). HTTP 400.
	CodeInvalidSpec Code = "invalid_spec"
	// CodeUnknownWorkload: the spec names no built-in workload. HTTP 400.
	CodeUnknownWorkload Code = "unknown_workload"
	// CodeUnsupportedMediaType: the request body's Content-Type is not
	// application/json. HTTP 415.
	CodeUnsupportedMediaType Code = "unsupported_media_type"
	// CodeRequestTooLarge: the request body exceeds the server's spec-size
	// bound. HTTP 413.
	CodeRequestTooLarge Code = "request_too_large"
	// CodeNotFound: no run (or route) matches the requested ID/path.
	// HTTP 404.
	CodeNotFound Code = "not_found"
	// CodeMethodNotAllowed: the path exists but not for this HTTP method.
	// HTTP 405.
	CodeMethodNotAllowed Code = "method_not_allowed"
	// CodeRunTerminal: the operation (cancel) is invalid because the run
	// already finished. HTTP 409.
	CodeRunTerminal Code = "run_terminal"
	// CodeQueueFull: the dispatch queue is at capacity; back off and
	// retry. HTTP 429.
	CodeQueueFull Code = "queue_full"
	// CodeRateLimited: the tenant's submission rate limit is exhausted;
	// retry after the Retry-After header's delay. HTTP 429.
	CodeRateLimited Code = "rate_limited"
	// CodeQuotaExceeded: the tenant's queue-depth quota is full; wait for
	// queued runs to drain (or cancel some) before resubmitting. HTTP 429.
	CodeQuotaExceeded Code = "quota_exceeded"
	// CodeShuttingDown: the service is draining and no longer accepts
	// work. HTTP 503.
	CodeShuttingDown Code = "shutting_down"
	// CodeInternal: an unexpected server-side failure. HTTP 500.
	CodeInternal Code = "internal"
)

// Sentinel errors, one per code. (*Error).Unwrap maps a decoded envelope
// back to the matching sentinel, so client callers can write
// errors.Is(err, api.ErrQueueFull) without touching the envelope.
var (
	ErrInvalidRequest       = errors.New("api: invalid request")
	ErrInvalidSpec          = errors.New("api: invalid spec")
	ErrUnknownWorkload      = errors.New("api: unknown workload")
	ErrUnsupportedMediaType = errors.New("api: unsupported media type")
	ErrRequestTooLarge      = errors.New("api: request too large")
	ErrNotFound             = errors.New("api: not found")
	ErrMethodNotAllowed     = errors.New("api: method not allowed")
	ErrRunTerminal          = errors.New("api: run already terminal")
	ErrQueueFull            = errors.New("api: queue full")
	ErrRateLimited          = errors.New("api: rate limited")
	ErrQuotaExceeded        = errors.New("api: tenant quota exceeded")
	ErrShuttingDown         = errors.New("api: shutting down")
	ErrInternal             = errors.New("api: internal server error")
)

var sentinels = map[Code]error{
	CodeInvalidRequest:       ErrInvalidRequest,
	CodeInvalidSpec:          ErrInvalidSpec,
	CodeUnknownWorkload:      ErrUnknownWorkload,
	CodeUnsupportedMediaType: ErrUnsupportedMediaType,
	CodeRequestTooLarge:      ErrRequestTooLarge,
	CodeNotFound:             ErrNotFound,
	CodeMethodNotAllowed:     ErrMethodNotAllowed,
	CodeRunTerminal:          ErrRunTerminal,
	CodeQueueFull:            ErrQueueFull,
	CodeRateLimited:          ErrRateLimited,
	CodeQuotaExceeded:        ErrQuotaExceeded,
	CodeShuttingDown:         ErrShuttingDown,
	CodeInternal:             ErrInternal,
}

// Sentinel returns the sentinel error for c, or nil for codes this client
// version doesn't know (a server may grow new codes; callers still get the
// *Error itself).
func (c Code) Sentinel() error { return sentinels[c] }

// Error is the decoded error envelope. It is both the wire shape the
// server emits and the error value the client returns for non-2xx
// responses.
type Error struct {
	Code    Code           `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`

	// HTTPStatus is the response status the envelope arrived with. It is
	// filled by the client, never serialized.
	HTTPStatus int `json:"-"`
	// RetryAfter is the parsed Retry-After response header (zero when the
	// server sent none) — how long to back off before retrying a 429/503.
	// Filled by the client, never serialized.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Unwrap maps the code to its sentinel so errors.Is works on decoded
// envelopes.
func (e *Error) Unwrap() error { return e.Code.Sentinel() }

// ErrorEnvelope is the top-level JSON wrapper of every error response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}
