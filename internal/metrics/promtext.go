package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a strict parser for the Prometheus text exposition format
// v0.0.4 — the format WritePrometheus renders. It exists for two callers:
// the registry's own round-trip tests, and the e2e tests, which scrape a
// live dagd and refuse malformed lines instead of grepping blindly. "Strict" means every non-comment line must parse
// fully: valid metric and label names, correctly quoted and escaped label
// values, a parseable float value, and histogram series attached to a
// # TYPE histogram family with intact +Inf/_sum/_count invariants.

// Sample is one parsed series sample.
type Sample struct {
	// Name is the sample's literal metric name — for histogram series this
	// includes the _bucket/_sum/_count suffix.
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is every sample sharing one base metric name, plus its metadata.
type Family struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped
	Samples []Sample
}

// Value returns the value of the single sample matching the given labels
// exactly (nil matches the empty label set), or false when absent.
func (f *Family) Value(labels map[string]string) (float64, bool) {
	for _, s := range f.Samples {
		if len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds up every sample of the family (histogram families sum only their
// _count series — "how many observations" — rather than double-counting
// buckets).
func (f *Family) Sum() float64 {
	var total float64
	for _, s := range f.Samples {
		if f.Type == typeHistogram && !strings.HasSuffix(s.Name, "_count") {
			continue
		}
		total += s.Value
	}
	return total
}

// ParsePrometheus strictly parses a text exposition page into families
// keyed by base metric name. Any malformed line fails the whole parse with
// its line number.
func ParsePrometheus(r io.Reader) (map[string]*Family, error) {
	families := make(map[string]*Family)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, families); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyFor(families, sample.Name)
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range families {
		if f.Type == typeHistogram {
			if err := checkHistogram(f); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", f.Name, err)
			}
		}
	}
	return families, nil
}

// familyFor resolves which family a sample belongs to: its own name unless
// that is a histogram-suffixed series of a declared histogram family.
func familyFor(families map[string]*Family, name string) *Family {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := families[base]; ok && f.Type == typeHistogram {
			return f
		}
	}
	f, ok := families[name]
	if !ok {
		f = &Family{Name: name, Type: "untyped"}
		families[name] = f
	}
	return f
}

func parseComment(line string, families map[string]*Family) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !nameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		f := familyFor(families, fields[2])
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	case "TYPE":
		if len(fields) != 4 || !nameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		name := fields[2]
		if f, ok := families[name]; ok && len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		familyFor(families, name).Type = fields[3]
	}
	return nil
}

// parseSample parses one `name{labels} value [timestamp]` line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !nameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	// An optional trailing timestamp (int64 milliseconds) is permitted by
	// the format; dagd never emits one but a strict parser must not choke.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected a value (and optional timestamp) after %q, got %q", s.Name, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at in[0] == '{' and
// returns how many bytes it consumed.
func parseLabels(in string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ' ' || in[i] == ',') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(in) && in[i] != '=' {
			i++
		}
		if i == len(in) {
			return 0, fmt.Errorf("unterminated label block %q", in)
		}
		name := in[start:i]
		if !labelRe.MatchString(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i++ // past '='
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("label %s value is not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return 0, fmt.Errorf("unterminated label value for %s", name)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return 0, fmt.Errorf("dangling escape in label %s", name)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("unknown escape \\%c in label %s", in[i+1], name)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %s", name)
		}
		out[name] = val.String()
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogram verifies the exposition invariants of one histogram
// family, per distinct label set: cumulative non-decreasing buckets, a +Inf
// bucket present and equal to _count, and a _sum sample present.
func checkHistogram(f *Family) error {
	type group struct {
		buckets []Sample
		sum     *Sample
		count   *Sample
	}
	groups := make(map[string]*group)
	keyOf := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%q,", k, labels[k])
		}
		return b.String()
	}
	for i := range f.Samples {
		s := f.Samples[i]
		g, ok := groups[keyOf(s.Labels)]
		if !ok {
			g = &group{}
			groups[keyOf(s.Labels)] = g
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if _, ok := s.Labels["le"]; !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			g.buckets = append(g.buckets, s)
		case strings.HasSuffix(s.Name, "_sum"):
			g.sum = &f.Samples[i]
		case strings.HasSuffix(s.Name, "_count"):
			g.count = &f.Samples[i]
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for key, g := range groups {
		if g.sum == nil || g.count == nil {
			return fmt.Errorf("series %q lacks _sum or _count", key)
		}
		if len(g.buckets) == 0 {
			return fmt.Errorf("series %q has no buckets", key)
		}
		sort.Slice(g.buckets, func(i, j int) bool {
			a, _ := parseValue(g.buckets[i].Labels["le"])
			b, _ := parseValue(g.buckets[j].Labels["le"])
			return a < b
		})
		prev := math.Inf(-1)
		prevCount := -1.0
		for _, b := range g.buckets {
			le, err := parseValue(b.Labels["le"])
			if err != nil {
				return fmt.Errorf("series %q has unparseable le %q", key, b.Labels["le"])
			}
			if le <= prev {
				return fmt.Errorf("series %q has duplicate bucket bound %v", key, le)
			}
			if b.Value < prevCount {
				return fmt.Errorf("series %q bucket counts decrease at le=%v", key, le)
			}
			prev, prevCount = le, b.Value
		}
		last := g.buckets[len(g.buckets)-1]
		if !math.IsInf(mustValue(last.Labels["le"]), +1) {
			return fmt.Errorf("series %q lacks a +Inf bucket", key)
		}
		if last.Value != g.count.Value {
			return fmt.Errorf("series %q +Inf bucket %v != _count %v", key, last.Value, g.count.Value)
		}
	}
	return nil
}

func mustValue(s string) float64 {
	v, _ := parseValue(s)
	return v
}
