package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dispatch"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/pkg/api"
)

// Local sentinels for failures that originate in the HTTP layer itself
// (the service layer has no notion of media types or query strings).
var (
	errInvalidRequest       = errors.New("server: invalid request")
	errUnsupportedMediaType = errors.New("server: unsupported media type")
)

// errorMapping is the single sentinel→(status, code) table for the whole
// API surface. Handlers never pick statuses or codes themselves; they
// return sentinel-wrapped errors and writeError classifies them here, so a
// new error category is one table row, not N handler switches.
var errorMapping = []struct {
	sentinel error
	status   int
	code     api.Code
}{
	{run.ErrInvalidSpec, http.StatusBadRequest, api.CodeInvalidSpec},
	{run.ErrUnknownWorkload, http.StatusBadRequest, api.CodeUnknownWorkload},
	{errInvalidRequest, http.StatusBadRequest, api.CodeInvalidRequest},
	{errUnsupportedMediaType, http.StatusUnsupportedMediaType, api.CodeUnsupportedMediaType},
	{run.ErrNotFound, http.StatusNotFound, api.CodeNotFound},
	{run.ErrTerminal, http.StatusConflict, api.CodeRunTerminal},
	{dispatch.ErrQueueFull, http.StatusTooManyRequests, api.CodeQueueFull},
	{dispatch.ErrRateLimited, http.StatusTooManyRequests, api.CodeRateLimited},
	{dispatch.ErrQuotaExceeded, http.StatusTooManyRequests, api.CodeQuotaExceeded},
	{dispatch.ErrShuttingDown, http.StatusServiceUnavailable, api.CodeShuttingDown},
}

// classify maps err to its HTTP status and machine-readable code,
// defaulting to 500/internal for anything unrecognized.
func classify(err error) (int, api.Code) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, api.CodeRequestTooLarge
	}
	for _, m := range errorMapping {
		if errors.Is(err, m.sentinel) {
			return m.status, m.code
		}
	}
	return http.StatusInternalServerError, api.CodeInternal
}

// writeError emits the structured v1 error envelope
// {"error":{"code":...,"message":...,"details":...}} for err; details may
// be nil. Backpressure errors (a dispatch.RetryableError in the chain) also
// carry a Retry-After header and retry details, so well-behaved clients
// can back off for exactly as long as the tenant's token bucket needs.
func writeError(w http.ResponseWriter, err error, details map[string]any) {
	status, code := classify(err)
	var retryable *dispatch.RetryableError
	if errors.As(err, &retryable) {
		// Retry-After is whole seconds; round up so a 300ms token deficit
		// doesn't advertise "retry immediately".
		secs := int64(math.Ceil(retryable.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		if details == nil {
			details = map[string]any{}
		}
		details["tenant"] = retryable.Tenant
		details["retry_after_ms"] = retryable.RetryAfter.Milliseconds()
	}
	writeJSON(w, status, api.ErrorEnvelope{Error: &api.Error{
		Code:    code,
		Message: err.Error(),
		Details: details,
	}})
}
