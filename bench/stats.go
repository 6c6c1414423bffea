package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of a sorted sample: the value
// at 1-based rank ceil(q·n), the same rule cmd/dagload uses (p95 of 31
// samples is rank 30, not 29). An empty sample reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// pct sorts a copy of v and returns its nearest-rank percentile.
func pct(v []float64, q float64) float64 { return percentile(sorted(v), q) }

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank q-percentile.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailQuantiles are the candidates tailQuantile chooses from, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a percentile before it is
// worth reporting: fewer and the value is one outlier, not a tail.
const minBeyond = 10

// tailQuantile picks the highest candidate percentile that still has at
// least minBeyond samples beyond it; ok is false when even the lowest
// candidate does not.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if samplesBeyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method Python's statistics.quantiles(v, n=4) uses, so a
// spread computed here matches one computed from the printed values. Fewer
// than two values return that value (or 0) three times.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based, fractional
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median is the middle quartile of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// span is one timed interval of one run: Name is the layer boundary it
// covers, Parent the Name of the span that caused it ("" for the root) and
// Run the identifier all spans of one run share. Times are Unix nanoseconds.
type span struct {
	Run    string `json:"run"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its direct children cover. Children are clipped to their parent and
// overlapping children are counted once, so the self times of one run's
// spans add up to the root's duration whenever the children nest.
func selfTimes(spans []span) map[string]int64 {
	type key struct{ run, name string }
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Run, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		kids := children[key{s.Run, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}
