package gen

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/dag"
)

// tally accumulates a sample's mean and variance.
type tally struct{ n, sum, sumSq float64 }

func (s *tally) add(x int) {
	s.n++
	s.sum += float64(x)
	s.sumSq += float64(x) * float64(x)
}

func (s tally) mean() float64 { return s.sum / s.n }

// varOfMean is the squared standard error of the mean.
func (s tally) varOfMean() float64 {
	m := s.mean()
	return (s.sumSq/s.n - m*m) * s.n / (s.n - 1) / s.n
}

// chi2Bound is the 1 − 10⁻⁴ quantile of χ² with nine degrees of freedom:
// the ten-bucket uniformity checks below fail a correct sampler once in ten
// thousand seed sets, and these seeds are fixed.
const chi2Bound = 33.7

// chiSquare compares observed[k], the present pairs pooled at position k,
// against pairs[k], how many forward pairs position k holds, over ten
// buckets of roughly equal pair mass.
func chiSquare(observed, pairs []float64) float64 {
	const buckets = 10
	var total, mass float64
	for k := range pairs {
		total += observed[k]
		mass += pairs[k]
	}
	var obs, exp [buckets]float64
	before := 0.0
	for k := range pairs {
		b := min(int(buckets*before/mass), buckets-1)
		obs[b] += observed[k]
		exp[b] += total * pairs[k] / mass
		before += pairs[k]
	}
	chi := 0.0
	for b := range obs {
		chi += (obs[b] - exp[b]) * (obs[b] - exp[b]) / exp[b]
	}
	return chi
}

// expectedFill is the exact mean number of edges fillIn adds to a sample
// of n nodes at edge probability p. With q = 1−p, node j is an orphan with
// probability q^j; an interior node i is left childless when its n−1−i
// pairs are absent and no later orphan j picked it. Given (i, j) is absent,
// j is an orphan with probability q^(j−1) and picks among its j earlier
// nodes uniformly, so it leaves i alone with probability 1 − q^(j−1)/j.
// Orphan status depends on disjoint columns, so those factors are
// independent.
func expectedFill(n int, p float64) float64 {
	q := 1 - p
	fill := 0.0
	for j := 1; j < n; j++ {
		fill += math.Pow(q, float64(j))
	}
	notPicked := 1.0 // Π over i < j < n of 1 − q^(j−1)/j
	for i := n - 2; i >= 0; i-- {
		j := i + 1
		notPicked *= 1 - math.Pow(q, float64(j-1))/float64(j)
		fill += math.Pow(q, float64(n-1-i)) * notPicked
	}
	return fill
}

// TestSkipSampleDistribution holds the sampler to its closed-form
// expectations over 200 seeds at the service mix, engine_fine and a fill-in
// heavy setting: the mean edge count p·n(n−1)/2, the mean fill-in
// expectedFill, and present pairs spread uniformly over rows and over gaps
// j−i.
func TestSkipSampleDistribution(t *testing.T) {
	const seeds = 200
	for _, tc := range []struct {
		name string
		n    int
		p    float64
	}{
		{"service mix n=200 p=0.02", 200, 0.02},
		{"engine_fine n=2000 p=0.01", 2000, 0.01},
		{"fill-in heavy n=500 p=0.001", 500, 0.001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n := tc.n
			var sampled, fill tally
			byRow, byGap := make([]float64, n), make([]float64, n)
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewPCG(uint64(seed), seedStream))
				g := skipSample(n, tc.p, rng)
				m := len(g.edges)
				for _, e := range g.edges {
					byRow[e[0]]++
					byGap[e[1]-e[0]]++
				}
				g.fillIn(rng)
				sampled.add(m)
				fill.add(len(g.edges) - m)
			}

			pairs := float64(n) * float64(n-1) / 2
			want, sd := tc.p*pairs, math.Sqrt(tc.p*(1-tc.p)*pairs/seeds)
			if d := math.Abs(sampled.mean() - want); d > 4*sd {
				t.Errorf("mean sampled edges %.1f, want %.1f ± 4×%.2f", sampled.mean(), want, sd)
			}
			wantFill, fillSD := expectedFill(n, tc.p), math.Sqrt(fill.varOfMean())
			if d := math.Abs(fill.mean() - wantFill); d > 4*fillSD {
				t.Errorf("mean fill-in edges %.2f, want %.2f ± 4×%.3f", fill.mean(), wantFill, fillSD)
			}

			rowPairs, gapPairs := make([]float64, n-1), make([]float64, n)
			for i := range rowPairs {
				rowPairs[i] = float64(n - 1 - i)
			}
			for g := 1; g < n; g++ {
				gapPairs[g] = float64(n - g)
			}
			rowChi, gapChi := chiSquare(byRow[:n-1], rowPairs), chiSquare(byGap, gapPairs)
			if rowChi > chi2Bound {
				t.Errorf("present pairs by row: χ² = %.1f over 10 buckets, want ≤ %.1f", rowChi, chi2Bound)
			}
			if gapChi > chi2Bound {
				t.Errorf("present pairs by gap j−i: χ² = %.1f over 10 buckets, want ≤ %.1f", gapChi, chi2Bound)
			}
			t.Logf("sampled edges %.1f (want %.1f); fill-in %.2f ± %.2f (want %.2f); χ² row %.1f gap %.1f",
				sampled.mean(), want, fill.mean(), fillSD, wantFill, rowChi, gapChi)
		})
	}
}

// countingSource counts the words a sampler draws from it.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.Source.Uint64()
}

func countingRand(seed uint64) (*rand.Rand, *countingSource) {
	src := &countingSource{Source: rand.NewPCG(seed, seedStream)}
	return rand.New(src), src
}

// TestSkipSampleEdgeCases pins the ends of p's range and the sizes where a
// skip outgrows an int: p = 0 and p = 1 draw nothing, p = 1 is the complete
// DAG, and a near-zero p at the admission node cap (run.MaxNodes, 1<<20)
// takes a handful of draws instead of 5.5e11.
func TestSkipSampleEdgeCases(t *testing.T) {
	for _, p := range []float64{0, 1} {
		rng, src := countingRand(1)
		g := skipSample(300, p, rng)
		if src.draws != 0 {
			t.Errorf("p=%v: %d skip draws, want none", p, src.draws)
		}
		if want := int(p * 300 * 299 / 2); len(g.edges) != want {
			t.Errorf("p=%v: %d sampled edges, want %d", p, len(g.edges), want)
		}
	}

	const n = 40
	d, err := RandomDAG(n, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != n*(n-1)/2 {
		t.Errorf("p=1: %d edges, want the complete DAG's %d", d.NumEdges(), n*(n-1)/2)
	}
	for i := 0; i < n; i++ {
		children := d.Children(dag.NodeID(i))
		if len(children) != n-1-i {
			t.Fatalf("p=1: node %d has %d children, want %d", i, len(children), n-1-i)
		}
		for k, c := range children {
			if int(c) != i+1+k {
				t.Fatalf("p=1: node %d children %v, want %d..%d in order", i, children, i+1, n-1)
			}
		}
	}

	const maxNodes = 1 << 20 // run.MaxNodes; gen cannot import run
	for _, tc := range []struct {
		p        float64
		maxDraws int
		minEdges int
		maxEdges int
		wholeDAG bool
	}{
		// ~0.55 expected edges: almost every draw overshoots the 5.5e11 pairs.
		{p: 1e-12, maxDraws: 10, maxEdges: 10, wholeDAG: true},
		// ~550 edges, each skip crossing hundreds of rows.
		{p: 1e-9, maxDraws: 1000, minEdges: 400, maxEdges: 700},
	} {
		rng, src := countingRand(7)
		g := skipSample(maxNodes, tc.p, rng)
		if src.draws > tc.maxDraws || len(g.edges) < tc.minEdges || len(g.edges) > tc.maxEdges {
			t.Errorf("p=%v n=%d: %d draws, %d edges; want ≤ %d draws and %d..%d edges",
				tc.p, maxNodes, src.draws, len(g.edges), tc.maxDraws, tc.minEdges, tc.maxEdges)
		}
		// Row-major order, in range: every skip landed on a real pair.
		prev := [2]dag.NodeID{0, 0}
		for _, e := range g.edges {
			if e[0] < 0 || e[0] >= e[1] || int(e[1]) >= maxNodes || (e[0] < prev[0] || e[0] == prev[0] && e[1] <= prev[1]) {
				t.Fatalf("p=%v: edge %v after %v is out of range or out of row-major order", tc.p, e, prev)
			}
			prev = e
		}
		if tc.wholeDAG {
			d, err := RandomDAG(maxNodes, tc.p, 7)
			if err != nil {
				t.Fatal(err)
			}
			if d.NumNodes() != maxNodes || d.NumEdges() < maxNodes-1 {
				t.Errorf("p=%v: %d nodes, %d edges; want %d nodes held together by fill-in", tc.p, d.NumNodes(), d.NumEdges(), maxNodes)
			}
		}
	}
}
