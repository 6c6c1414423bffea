// Package tenant models the multi-tenant admission policy of the dagd
// service: who a submitter is, how much of the dispatch capacity they are
// entitled to, and how fast they may submit.
//
// A tenant is identified by the X-Tenant request header. Each configured
// tenant carries a weight (its share under the dispatcher's deficit-round-
// robin scheduler), a priority class (higher classes drain strictly first),
// per-tenant in-flight and queue-depth quotas, and a token-bucket submit
// rate limit. A Registry holds the full tenant set and always contains a
// catch-all "default" tenant: requests naming no tenant — or a tenant the
// operator never configured — are attributed to it, so one unknown client
// can never mint itself an unbounded number of queues.
//
// Configs load from a JSON file (dagd -tenants) shaped {"tenants": [...]}:
//
//	{"tenants": [
//	  {"name": "batch", "weight": 1, "max_queue_depth": 512},
//	  {"name": "interactive", "weight": 4, "priority": 1,
//	   "max_in_flight": 8, "submit_rate": 50, "submit_burst": 100}
//	]}
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// Default is the name of the catch-all tenant every Registry contains.
// Submissions with no (or an unconfigured) tenant are attributed to it.
const Default = "default"

// Config bounds for sanity-checking operator input.
const (
	// MaxNameLen bounds a tenant name's length.
	MaxNameLen = 64
	// MaxWeight bounds the DRR weight so one tenant cannot configure an
	// effectively infinite quantum.
	MaxWeight = 1 << 16
	// MaxPriorityMagnitude bounds |priority|.
	MaxPriorityMagnitude = 1000
)

// ErrInvalidConfig marks every tenant-configuration failure (bad names,
// out-of-range weights, duplicate tenants, unreadable files).
var ErrInvalidConfig = errors.New("tenant: invalid config")

// Config is one tenant's admission policy. The zero value of every field
// except Name means "unlimited" or "service default".
type Config struct {
	// Name identifies the tenant; it is matched against the X-Tenant header
	// and recorded on every run the tenant submits.
	Name string `json:"name"`
	// Weight is the tenant's share under deficit round-robin: a weight-3
	// tenant drains three runs for every one a weight-1 tenant drains when
	// both have work queued. Zero means 1.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's priority class. Classes are strict: no run
	// from a lower class is dispatched while a higher class has a queued
	// run under its tenant's in-flight cap. Fairness (weights) applies within a class only.
	Priority int `json:"priority,omitempty"`
	// MaxInFlight caps how many of the tenant's runs may execute
	// concurrently. A tenant at its cap is skipped by the scheduler — its
	// queued work waits without blocking other tenants. Zero = unlimited.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxQueueDepth caps the tenant's queued (not yet running) backlog;
	// submissions past it fail with quota_exceeded. Zero = the service-wide
	// default depth (dagd -queue).
	MaxQueueDepth int `json:"max_queue_depth,omitempty"`
	// SubmitRate is the sustained submissions/second the tenant may make,
	// enforced by a token bucket at admission; past it submissions fail
	// with rate_limited and a computed Retry-After. Zero = unlimited.
	SubmitRate float64 `json:"submit_rate,omitempty"`
	// SubmitBurst is the token-bucket capacity — how many submissions may
	// arrive back to back before the rate applies. Zero = max(1, ⌈rate⌉).
	SubmitBurst int `json:"submit_burst,omitempty"`
}

// Validate rejects structurally invalid configs with ErrInvalidConfig.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: tenant with empty name", ErrInvalidConfig)
	}
	if len(c.Name) > MaxNameLen {
		return fmt.Errorf("%w: tenant name %q longer than %d bytes", ErrInvalidConfig, c.Name, MaxNameLen)
	}
	for _, r := range c.Name {
		if r <= ' ' || r == 0x7f {
			return fmt.Errorf("%w: tenant name %q contains whitespace or control characters", ErrInvalidConfig, c.Name)
		}
	}
	if c.Weight < 0 || c.Weight > MaxWeight {
		return fmt.Errorf("%w: tenant %s weight %d outside [0,%d]", ErrInvalidConfig, c.Name, c.Weight, MaxWeight)
	}
	if c.Priority < -MaxPriorityMagnitude || c.Priority > MaxPriorityMagnitude {
		return fmt.Errorf("%w: tenant %s priority %d outside [%d,%d]",
			ErrInvalidConfig, c.Name, c.Priority, -MaxPriorityMagnitude, MaxPriorityMagnitude)
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("%w: tenant %s max_in_flight %d is negative", ErrInvalidConfig, c.Name, c.MaxInFlight)
	}
	if c.MaxQueueDepth < 0 {
		return fmt.Errorf("%w: tenant %s max_queue_depth %d is negative", ErrInvalidConfig, c.Name, c.MaxQueueDepth)
	}
	if c.SubmitRate < 0 {
		return fmt.Errorf("%w: tenant %s submit_rate %v is negative", ErrInvalidConfig, c.Name, c.SubmitRate)
	}
	if c.SubmitBurst < 0 {
		return fmt.Errorf("%w: tenant %s submit_burst %d is negative", ErrInvalidConfig, c.Name, c.SubmitBurst)
	}
	return nil
}

// withDefaults normalizes the zero values that mean "use a default".
func (c Config) withDefaults() Config {
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.SubmitRate > 0 && c.SubmitBurst == 0 {
		c.SubmitBurst = int(c.SubmitRate)
		if float64(c.SubmitBurst) < c.SubmitRate {
			c.SubmitBurst++ // ceil
		}
		if c.SubmitBurst < 1 {
			c.SubmitBurst = 1
		}
	}
	return c
}

// Registry is an immutable, validated tenant set. It always contains the
// catch-all Default tenant; Resolve never fails.
type Registry struct {
	byName map[string]Config
	names  []string // config order, default first if injected
}

// NewRegistry validates and normalizes cfgs into a Registry, injecting an
// unlimited catch-all Default tenant unless the operator configured one
// explicitly. A nil or empty cfgs yields the default-only registry.
func NewRegistry(cfgs []Config) (*Registry, error) {
	r := &Registry{byName: make(map[string]Config, len(cfgs)+1)}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.byName[c.Name]; dup {
			return nil, fmt.Errorf("%w: tenant %q configured twice", ErrInvalidConfig, c.Name)
		}
		r.byName[c.Name] = c.withDefaults()
		r.names = append(r.names, c.Name)
	}
	if _, ok := r.byName[Default]; !ok {
		r.byName[Default] = Config{Name: Default}.withDefaults()
		r.names = append([]string{Default}, r.names...)
	}
	return r, nil
}

// Resolve maps a requested tenant name to its effective config: the named
// tenant's when configured, the catch-all Default's otherwise (including
// for the empty name). The returned Config's Name is the attribution the
// run should carry.
func (r *Registry) Resolve(name string) Config {
	if c, ok := r.byName[name]; ok {
		return c
	}
	return r.byName[Default]
}

// Configs returns every tenant config in registry order.
func (r *Registry) Configs() []Config {
	out := make([]Config, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.byName[n])
	}
	return out
}

// configFile is the on-disk shape of a -tenants file.
type configFile struct {
	Tenants []Config `json:"tenants"`
}

// LoadFile reads tenant configs from a JSON file shaped {"tenants":[...]}
// and validates them by building a throwaway Registry.
func LoadFile(path string) ([]Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrInvalidConfig, path, err)
	}
	var file configFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%w: %s is not shaped {\"tenants\":[...]}: %v", ErrInvalidConfig, path, err)
	}
	if file.Tenants == nil {
		return nil, fmt.Errorf("%w: %s is not shaped {\"tenants\":[...]}: it has no \"tenants\" array", ErrInvalidConfig, path)
	}
	if _, err := NewRegistry(file.Tenants); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file.Tenants, nil
}

// Bucket is a token-bucket rate limiter: capacity `burst` tokens refilled
// at `rate` tokens/second. It is safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
}

// NewBucket returns a full bucket. rate and burst must be positive.
func NewBucket(rate float64, burst int) *Bucket {
	return &Bucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// newBucketAt is NewBucket with an injected clock, for tests.
func newBucketAt(rate float64, burst int, now func() time.Time) *Bucket {
	b := NewBucket(rate, burst)
	b.now = now
	return b
}

// Take consumes one token if available. When the bucket is empty it
// reports ok=false and how long until the next token accrues — the
// Retry-After the API surfaces on 429 rate_limited.
func (b *Bucket) Take() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
			b.tokens += elapsed * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Time until the deficit to one whole token refills, saturated at the
	// largest Duration: a tiny rate would overflow the conversion and wrap
	// the hint negative.
	wait := (1 - b.tokens) / b.rate * float64(time.Second)
	if wait >= math.MaxInt64 {
		return false, math.MaxInt64
	}
	return false, time.Duration(wait)
}
