package tenant

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Name: strings.Repeat("x", MaxNameLen+1)},
		{Name: "has space"},
		{Name: "ctl\x01"},
		{Name: "w", Weight: -1},
		{Name: "w", Weight: MaxWeight + 1},
		{Name: "p", Priority: MaxPriorityMagnitude + 1},
		{Name: "p", Priority: -MaxPriorityMagnitude - 1},
		{Name: "q", MaxInFlight: -1},
		{Name: "q", MaxQueueDepth: -1},
		{Name: "r", SubmitRate: -0.5},
		{Name: "r", SubmitBurst: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidConfig", c, err)
		}
	}
	good := []Config{
		{Name: "a"},
		{Name: "a.b-c_d", Weight: 3, Priority: -2, MaxInFlight: 8, MaxQueueDepth: 64, SubmitRate: 0.5, SubmitBurst: 2},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
}

func TestRegistryInjectsDefault(t *testing.T) {
	r, err := NewRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Resolve("")
	if d.Name != Default || d.Weight != 1 {
		t.Fatalf("Resolve(\"\") = %+v, want catch-all default with weight 1", d)
	}
	if got := r.Resolve("never-configured"); got.Name != Default {
		t.Errorf("unknown tenant resolved to %q, want %q", got.Name, Default)
	}
	if n := len(r.Configs()); n != 1 {
		t.Errorf("empty registry has %d configs, want 1 (default)", n)
	}
}

func TestRegistryResolveAndDefaults(t *testing.T) {
	r, err := NewRegistry([]Config{
		{Name: "batch"},
		{Name: "interactive", Weight: 4, SubmitRate: 2.5}, // burst defaults to ceil(2.5)=3
		{Name: Default, MaxQueueDepth: 7},                 // operator-specified catch-all
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Resolve("interactive"); got.Weight != 4 || got.SubmitBurst != 3 {
		t.Errorf("interactive = %+v, want weight 4, burst 3", got)
	}
	if got := r.Resolve("batch"); got.Weight != 1 {
		t.Errorf("batch weight defaulted to %d, want 1", got.Weight)
	}
	// The configured default wins over the injected catch-all and still
	// catches unknown names.
	if got := r.Resolve("stranger"); got.Name != Default || got.MaxQueueDepth != 7 {
		t.Errorf("unknown tenant resolved to %+v, want configured default", got)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	_, err := NewRegistry([]Config{{Name: "a"}, {Name: "a", Weight: 2}})
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("duplicate tenant accepted: %v", err)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := write("tenants.json", `{"tenants":[{"name":"a","weight":2},{"name":"b","priority":1}]}`)
	cfgs, err := LoadFile(p)
	if err != nil || len(cfgs) != 2 || cfgs[0].Name != "a" || cfgs[1].Priority != 1 {
		t.Fatalf("LoadFile = %+v, %v", cfgs, err)
	}

	for name, body := range map[string]string{
		"garbage.json":   `not json`,
		"bare.json":      `[{"name":"solo","submit_rate":1}]`,
		"badshape.json":  `{"other":true}`,
		"badtenant.json": `{"tenants":[{"name":""}]}`,
		"dup.json":       `{"tenants":[{"name":"x"},{"name":"x"}]}`,
	} {
		p := write(name, body)
		_, err := LoadFile(p)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("LoadFile(%s) = %v, want ErrInvalidConfig", name, err)
		}
		// A file of the wrong shape is told which shape is wanted.
		if wrongShape := name != "badtenant.json" && name != "dup.json"; wrongShape && !strings.Contains(fmt.Sprint(err), `{"tenants":[...]}`) {
			t.Errorf("LoadFile(%s) = %v, want an error naming the {\"tenants\":[...]} shape", name, err)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("LoadFile(missing) = %v, want ErrInvalidConfig", err)
	}
}

func TestBucket(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	b := newBucketAt(2, 2, now) // 2 tokens/s, burst 2

	// Burst drains immediately.
	for i := 0; i < 2; i++ {
		if ok, _ := b.Take(); !ok {
			t.Fatalf("take %d refused with a full bucket", i)
		}
	}
	ok, retry := b.Take()
	if ok {
		t.Fatal("take succeeded on an empty bucket")
	}
	// One token accrues in 1/rate = 500ms.
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 500ms]", retry)
	}

	// After the advertised wait, a take succeeds again.
	clock = clock.Add(retry)
	if ok, _ := b.Take(); !ok {
		t.Fatal("take refused after waiting the advertised retryAfter")
	}

	// Refill never exceeds burst: a long idle period grants 2, not 2000.
	clock = clock.Add(1000 * time.Second)
	granted := 0
	for {
		ok, _ := b.Take()
		if !ok {
			break
		}
		granted++
		if granted > 10 {
			t.Fatal("bucket granting far past burst")
		}
	}
	if granted != 2 {
		t.Fatalf("idle refill granted %d tokens, want burst=2", granted)
	}

	// A rate so small that the wait overflows a Duration: the hint
	// saturates instead of wrapping negative.
	tiny := newBucketAt(1e-12, 1, now)
	if ok, _ := tiny.Take(); !ok {
		t.Fatal("first take refused with a full bucket")
	}
	ok, retry = tiny.Take()
	if ok {
		t.Fatal("take succeeded on an empty bucket at rate 1e-12")
	}
	if century := 100 * 365 * 24 * time.Hour; retry < century {
		t.Fatalf("retryAfter at rate 1e-12 = %v, want positive and at least 100 years", retry)
	}
}
