package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{31, 0.95, 30}, // dagload's regression case: rank ceil(29.45) = 30, not 29
		{4, 0.50, 2},
		{100, 0.99, 99},
		{100, 0.999, 100},
		{5, 0, 1},
		{5, 1, 5},
		{1, 0.99, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := pct([]float64{9, 1, 5}, 0.5); got != 5 {
		t.Errorf("pct sorts first: got %g, want 5", got)
	}
}

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{20000, 0.999, true}, // 20 beyond
		{1200, 0.99, true},   // 12 beyond
		{999, 0.95, true},    // p99 would leave 9
		{300, 0.95, true},    // 15 beyond
		{155, 0.90, true},    // p95 would leave 7
		{60, 0.75, true},     // 15 beyond
		{40, 0.75, true},     // exactly 10 beyond
		{39, 0, false},
		{10, 0, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || (ok && q != c.want) {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && samplesBeyond(c.n, q) < minBeyond {
			t.Errorf("tailQuantile(%d) = %g leaves only %d samples beyond", c.n, q, samplesBeyond(c.n, q))
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v            []float64
		q1, med, q3v float64
	}{
		{seq(5), 1.5, 3, 4.5},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.v)
		if q1 != c.q1 || med != c.med || q3 != c.q3v {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, med, q3, c.q1, c.med, c.q3v)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Run: "a", Name: "run", Start: 0, End: 100},
		{Run: "a", Name: "x", Parent: "run", Start: 10, End: 30},
		{Run: "a", Name: "y", Parent: "run", Start: 20, End: 50},      // overlaps x: counted once
		{Run: "a", Name: "z", Parent: "run", Start: 90, End: 120},     // clipped to its parent
		{Run: "a", Name: "leaf", Parent: "y", Start: 25, End: 35},     // grandchild: y's business only
		{Run: "b", Name: "run", Start: 1000, End: 1010},               // another run, no children
		{Run: "b", Name: "x", Parent: "nope", Start: 1000, End: 1004}, // orphan: still has self time
		{Run: "b", Name: "empty", Parent: "run", Start: 1005, End: 1005},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"run":  (100 - 40 - 10) + 10, // a: minus [10,50] and [90,100]; b: all of it
		"x":    20 + 4,
		"y":    30 - 10,
		"z":    30,
		"leaf": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["empty"]; ok {
		t.Error("an empty span has no self time")
	}
}

// Spans that tile their parent have self times adding up to the root's
// duration: the property trace.self_time_cover reports.
func TestSelfTimesOfTilingSpansAddUp(t *testing.T) {
	st := steps{}
	begin := time.Unix(100, 0)
	st.layout(begin, 3*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, time.Millisecond)
	spans := stepSpans("e", "", begin.Add(-time.Millisecond), begin.Add(12*time.Millisecond), st)
	var sum int64
	for _, v := range selfTimes(spans) {
		sum += v
	}
	if want := (13 * time.Millisecond).Nanoseconds(); sum != want {
		t.Errorf("self times add up to %d ns, want %d", sum, want)
	}
	if self := selfTimes(spans)["run.execute"]; self != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("run.execute self time = %d ns, want 2ms", self)
	}
}

func TestWindowStatsSharesWorkAcrossWindows(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	ds := []done{
		{from: at(0), at: at(1), runs: 2, nodes: 100, serialMs: 4, parallelMs: 2},     // all in window 0
		{from: at(0.5), at: at(1.5), runs: 2, nodes: 100, serialMs: 4, parallelMs: 2}, // half in 0, half in 1
		{from: at(4.5), at: at(5.5), runs: 2, nodes: 100, serialMs: 4, parallelMs: 2}, // half past the end
		{from: at(9), at: at(10), runs: 2},                                            // wholly outside
	}
	rate, ns, sp := windowStats(start, 5*time.Second, ds)
	wantRate := []float64{3, 1, 0, 0, 1}
	for i, w := range wantRate {
		if math.Abs(rate[i]-w) > 1e-9 {
			t.Errorf("window %d: %g runs/s, want %g", i, rate[i], w)
		}
	}
	if len(ns) != 3 || len(sp) != 3 {
		t.Fatalf("windows without work must yield no ratio: got %d and %d values", len(ns), len(sp))
	}
	for i := range ns {
		if math.Abs(ns[i]-20000) > 1e-6 || math.Abs(sp[i]-2) > 1e-9 {
			t.Errorf("ratio %d: %g ns/node, speedup %g; want 20000 and 2", i, ns[i], sp[i])
		}
	}
}
