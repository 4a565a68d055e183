package distmatrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plotters/internal/metrics"
)

// lineMetric is a 1-D point set: dist(i,j) = |x_i − x_j| is a true
// metric (so pivot pruning is sound), and coarse-rounded coordinates
// give an admissible lower bound the same way the coarsened-CDF
// signatures do for EMD.
type lineMetric struct {
	x []float64
}

func randLineMetric(rng *rand.Rand, n int) *lineMetric {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 100
	}
	return &lineMetric{x: x}
}

func (l *lineMetric) dist(i, j int) float64 {
	return math.Abs(l.x[i] - l.x[j])
}

// bound rounds both coordinates to a 0.5 grid: the rounded distance can
// overshoot the true one by at most 0.5, so subtracting 0.5 is
// admissible (clamped at zero) while still pruning far pairs.
func (l *lineMetric) bound(i, j int) float64 {
	const cell = 0.5
	a := math.Round(l.x[i]/cell) * cell
	b := math.Round(l.x[j]/cell) * cell
	lb := math.Abs(a-b) - cell
	if lb < 0 {
		return 0
	}
	return lb
}

// naiveMatrix is the reference every mode of the kernel must reproduce
// bit for bit: a plain double loop over dist, with the cut (when
// positive) applied after the fact.
func naiveMatrix(n int, dist DistFunc, cut float64) *Matrix {
	out := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if cut > 0 && v > cut {
				v = Sentinel
			}
			out.set(i, j, v)
		}
	}
	return out
}

func matricesEqual(a, b *Matrix) (int, int, bool) {
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestKernelMatchesNaiveLoop: the one worker loop, at every worker
// count and with every combination of layers, fills exactly the matrix
// the naive double loop does. n clears DefaultSequentialCutoff so the
// pool really runs for workers > 1.
func TestKernelMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{48, 131} {
		l := randLineMetric(rng, n)
		const cut = 12.5
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"no cut", Options{}},
			{"cut only", Options{Cut: cut}},
			{"cut + bound", Options{Cut: cut, Bound: l.bound}},
			{"cut + bound + pivots", Options{Cut: cut, Bound: l.bound, Pivots: 4}},
		} {
			want := naiveMatrix(n, l.dist, mode.opts.Cut)
			for _, workers := range []int{1, 2, 4, 8} {
				opts := mode.opts
				opts.Parallelism = workers
				got := Compute(n, l.dist, opts)
				if i, j, ok := matricesEqual(got, want); !ok {
					t.Errorf("n=%d %s workers=%d: cell (%d,%d) = %v, want %v",
						n, mode.name, workers, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// TestPrunedMatrixMatchesGatedExhaustive pins the kernel's central
// invariant: for random metrics and random cuts, the pruned matrix —
// any combination of prefilter, pivots, inline, pooled — is
// bit-identical to the exhaustive matrix with the same cut applied
// after the fact.
func TestPrunedMatrixMatchesGatedExhaustive(t *testing.T) {
	property := func(seed int64, nRaw, pivotsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%120
		l := randLineMetric(rng, n)
		cut := rng.Float64() * 60
		want := naiveMatrix(n, l.dist, cut)
		for _, cfg := range []Options{
			{Parallelism: 1, Cut: cut},
			{Parallelism: 1, Cut: cut, Bound: l.bound},
			{Parallelism: 1, Cut: cut, Bound: l.bound, Pivots: 1 + int(pivotsRaw)%5},
			{Parallelism: 4, Cut: cut, Bound: l.bound, Pivots: 1 + int(pivotsRaw)%5},
			{Parallelism: 4, Cut: cut, Pivots: 3},
		} {
			got := Compute(n, l.dist, cfg)
			if i, j, ok := matricesEqual(got, want); !ok {
				t.Logf("seed=%d n=%d cut=%v cfg=%+v: cell (%d,%d) = %v, want %v",
					seed, n, cut, cfg, i, j, got.At(i, j), want.At(i, j))
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// pruneCounters reads the layer tallies a gated fill reported.
type pruneCounters struct {
	total, prunedBound, prunedPivot, exact, gated int64
}

func readCounters(reg *metrics.Registry) pruneCounters {
	c := reg.TakeSnapshot().Counters
	return pruneCounters{
		total:       c["distmatrix/pairs_total"],
		prunedBound: c["distmatrix/pairs_pruned_bound"],
		prunedPivot: c["distmatrix/pairs_pruned_pivot"],
		exact:       c["distmatrix/pairs"],
		gated:       c["distmatrix/pairs_gated"],
	}
}

// TestPrunedStatsAccounting: every pair is counted exactly once across
// the pruning layers, and pruning actually skips work on a spread-out
// input.
func TestPrunedStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 120
	l := randLineMetric(rng, n)
	reg := metrics.New()
	Compute(n, l.dist, Options{
		Parallelism: 3, Cut: 5, Bound: l.bound, Pivots: 4, Metrics: reg,
	})
	st := readCounters(reg)
	total := int64(n * (n - 1) / 2)
	if st.total != total {
		t.Errorf("pairs_total = %d, want %d", st.total, total)
	}
	if got := st.prunedBound + st.prunedPivot + st.exact; got != total {
		t.Errorf("pruned_bound+pruned_pivot+pairs = %d, want %d (%+v)", got, total, st)
	}
	if st.prunedBound == 0 {
		t.Error("prefilter pruned nothing on a spread-out input")
	}
	if st.exact >= total/2 {
		t.Errorf("pairs = %d of %d: pruning ineffective", st.exact, total)
	}
	if st.gated > st.exact {
		t.Errorf("pairs_gated = %d exceeds pairs = %d", st.gated, st.exact)
	}
	snap := reg.TakeSnapshot()
	for _, h := range snap.Histograms {
		// One observation per pool worker plus one for the pivot phase.
		if h.Count != 4 {
			t.Errorf("histogram %s: %d observations, want 4", h.Name, h.Count)
		}
	}
	if len(snap.Histograms) != 3 {
		t.Errorf("histograms = %+v, want worker_busy, prefilter_busy, exact_busy", snap.Histograms)
	}
}

// TestPrunedSentinelPlacement: below-cut pairs hold their exact values,
// above-cut pairs hold Sentinel, the diagonal stays zero.
func TestPrunedSentinelPlacement(t *testing.T) {
	l := &lineMetric{x: []float64{0, 1, 2, 50, 51, 103}}
	n := len(l.x)
	m := Compute(n, l.dist, Options{
		Parallelism: 1, Cut: 10, Bound: l.bound, Pivots: 2,
	})
	for i := 0; i < n; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, m.At(i, i))
		}
		for j := i + 1; j < n; j++ {
			want := l.dist(i, j)
			got := m.At(i, j)
			if want > 10 {
				if !IsSentinel(got) {
					t.Errorf("(%d,%d) = %v, want Sentinel (exact %v > cut)", i, j, got, want)
				}
			} else if got != want {
				t.Errorf("(%d,%d) = %v, want exact %v", i, j, got, want)
			}
			if got != m.At(j, i) {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// TestPrunedPivotSaturation: asking for more pivots than items must not
// loop or double-count; with every item a pivot the matrix is complete
// and exact evaluations cover each pair once.
func TestPrunedPivotSaturation(t *testing.T) {
	l := &lineMetric{x: []float64{3, 1, 4, 1.5, 9}}
	n := len(l.x)
	reg := metrics.New()
	m := Compute(n, l.dist, Options{
		Parallelism: 1, Cut: 100, Pivots: 50, Metrics: reg,
	})
	total := int64(n * (n - 1) / 2)
	if st := readCounters(reg); st.exact != total || st.total != total {
		t.Errorf("counters = %+v, want pairs_total = pairs = %d", st, total)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := l.dist(i, j)
			if got := m.At(i, j); got != want {
				t.Errorf("(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestPrunedAdversarialBound: even a uselessly loose bound (always 0)
// and a bound that lies within the slack margin keep the matrix correct
// — layers may only skip pairs the cut proves irrelevant.
func TestPrunedAdversarialBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40
	l := randLineMetric(rng, n)
	cut := 20.0
	want := naiveMatrix(n, l.dist, cut)
	for name, bound := range map[string]BoundFunc{
		"zero":  func(i, j int) float64 { return 0 },
		"exact": l.dist,
	} {
		got := Compute(n, l.dist, Options{Parallelism: 1, Cut: cut, Bound: bound})
		if i, j, ok := matricesEqual(got, want); !ok {
			t.Errorf("%s bound: cell (%d,%d) = %v, want %v", name, i, j, got.At(i, j), want.At(i, j))
		}
	}
}

func ExampleOptions_pruned() {
	// Ten points in two far-apart clumps: with a cut of 5 every
	// cross-clump pair is pruned or gated to the sentinel.
	x := []float64{0, 1, 2, 3, 4, 100, 101, 102, 103, 104}
	l := &lineMetric{x: x}
	reg := metrics.New()
	m := Compute(len(x), l.dist, Options{
		Parallelism: 1, Cut: 5, Bound: l.bound, Pivots: 2, Metrics: reg,
	})
	st := readCounters(reg)
	fmt.Printf("within: %v  across: sentinel=%v  exact evals: %d of %d\n",
		m.At(0, 4), IsSentinel(m.At(0, 9)), st.exact, st.total)
	// Output:
	// within: 4  across: sentinel=true  exact evals: 29 of 45
}
