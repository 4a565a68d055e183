package distmatrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plotters/internal/metrics"
)

// lineMetric is a 1-D point set: dist(i,j) = |x_i − x_j|. The coordinate
// itself is an index key equal to the exact distance.
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

// looseKey is an admissible key that is far from tight: half the
// coordinate, so the band holds every pair within twice the cut.
func (l *lineMetric) looseKey() []float64 {
	key := make([]float64, len(l.x))
	for i, x := range l.x {
		key[i] = x / 2
	}
	return key
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

// graphMatchesGated reports the first way g fails to be exactly the
// finite cells of the gated matrix want: a well-formed band layout, At
// agreeing with the matrix in every cell — both orders and the diagonal
// — and Pairs counting the finite cells, no more and no fewer.
func graphMatchesGated(g *Graph, want *Matrix) error {
	n := want.N()
	if g.N() != n || len(g.Order) != n || len(g.End) != n || len(g.Off) != n {
		return fmt.Errorf("graph has %d items, want %d", g.N(), n)
	}
	band := 0
	for p, i := range g.Order {
		if g.Pos[i] != int32(p) {
			return fmt.Errorf("Pos[%d] = %d, want %d", i, g.Pos[i], p)
		}
		if e := int(g.End[p]); e <= p && p < n-1 || e > n || p > 0 && g.End[p] < g.End[p-1] {
			return fmt.Errorf("End[%d] = %d: not a band (End = %v)", p, e, g.End)
		}
		if g.Off[p] != band {
			return fmt.Errorf("Off[%d] = %d, want %d", p, g.Off[p], band)
		}
		band += max(int(g.End[p])-p-1, 0)
	}
	if len(g.Val) != band {
		return fmt.Errorf("len(Val) = %d, want the band's %d", len(g.Val), band)
	}
	finite := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w := want.At(i, j)
			if got := g.At(i, j); got != w {
				return fmt.Errorf("At(%d,%d) = %v, want %v", i, j, got, w)
			}
			if j > i && !IsSentinel(w) {
				finite++
			}
		}
	}
	if g.Pairs() != finite {
		return fmt.Errorf("Pairs() = %d, want %d", g.Pairs(), finite)
	}
	return nil
}

// sparseModes are the index keys every sparse equivalence test runs: the
// key equal to the exact distance, a loose one, and a useless one (always
// 0: the band is every pair).
func sparseModes(l *lineMetric) []struct {
	name string
	key  []float64
} {
	return []struct {
		name string
		key  []float64
	}{
		{"exact key", l.x},
		{"loose key", l.looseKey()},
		{"useless key", make([]float64, len(l.x))},
	}
}

// TestKernelMatchesNaiveLoop: the one worker loop, at every worker
// count, fills exactly what the naive double loop does — the whole
// matrix for Compute with and without the gate, its finite cells for
// ComputeSparse under every index key. n clears
// DefaultSequentialCutoff so the pool really runs for workers > 1.
func TestKernelMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{48, 131} {
		l := randLineMetric(rng, n)
		const cut = 12.5
		gated := naiveMatrix(n, l.dist, cut)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, c := range []float64{0, cut} {
				got := Compute(n, l.dist, Options{Parallelism: workers, Cut: c})
				if i, j, ok := matricesEqual(got, naiveMatrix(n, l.dist, c)); !ok {
					t.Errorf("n=%d dense cut=%v workers=%d: cell (%d,%d) = %v", n, c, workers, i, j, got.At(i, j))
				}
			}
			for _, mode := range sparseModes(l) {
				g := ComputeSparse(mode.key, 0, l.dist, Options{Parallelism: workers, Cut: cut})
				if err := graphMatchesGated(g, gated); err != nil {
					t.Errorf("n=%d %s workers=%d: %v", n, mode.name, workers, err)
				}
			}
		}
	}
}

// TestPrunedMatrixMatchesGatedExhaustive pins the kernel's central
// invariant: for random metrics and random cuts — from "nothing finite"
// to "everything finite" — the sparse graph, under any index key, inline
// and pooled, is pair for pair and value for value the finite part of the
// exhaustive matrix with the same cut applied after the fact.
func TestPrunedMatrixMatchesGatedExhaustive(t *testing.T) {
	property := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%120
		l := randLineMetric(rng, n)
		// Coordinates span [0, 100): a cut of 1e-3 keeps nothing, one of
		// 120 everything.
		cut := []float64{1e-3, rng.Float64() * 60, 120}[rng.Intn(3)]
		want := Compute(n, l.dist, Options{Parallelism: 1, Cut: cut})
		for _, par := range []int{1, 0, 4} {
			for _, mode := range sparseModes(l) {
				g := ComputeSparse(mode.key, 0, l.dist, Options{Parallelism: par, Cut: cut})
				if err := graphMatchesGated(g, want); err != nil {
					t.Logf("seed=%d n=%d cut=%v %s parallelism=%d: %v", seed, n, cut, mode.name, par, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// pruneCounters reads the layer tallies a sparse fill reported.
type pruneCounters struct {
	total, prunedIndex, exact, gated int64
}

func readCounters(reg *metrics.Registry) pruneCounters {
	c := reg.TakeSnapshot().Counters
	return pruneCounters{
		total:       c["distmatrix/pairs_total"],
		prunedIndex: c["distmatrix/pairs_pruned_index"],
		exact:       c["distmatrix/pairs"],
		gated:       c["distmatrix/pairs_gated"],
	}
}

// TestPrunedStatsAccounting: every pair is counted exactly once across
// the layers, the index actually skips work on a spread-out input, and
// what survives the gate is what the graph holds.
func TestPrunedStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 120
	l := randLineMetric(rng, n)
	reg := metrics.New()
	g := ComputeSparse(l.looseKey(), 0, l.dist, Options{Parallelism: 3, Cut: 5, Metrics: reg})
	st := readCounters(reg)
	total := int64(n * (n - 1) / 2)
	if st.total != total {
		t.Errorf("pairs_total = %d, want %d", st.total, total)
	}
	if got := st.exact + st.prunedIndex; got != total {
		t.Errorf("pairs+pruned_index = %d, want %d (%+v)", got, total, st)
	}
	if st.prunedIndex == 0 {
		t.Errorf("the index pruned nothing on a spread-out input: %+v", st)
	}
	if st.exact >= total/2 {
		t.Errorf("pairs = %d of %d: pruning ineffective", st.exact, total)
	}
	if int64(g.Pairs()) != st.exact-st.gated {
		t.Errorf("graph holds %d pairs, want pairs − pairs_gated = %d", g.Pairs(), st.exact-st.gated)
	}
	snap := reg.TakeSnapshot()
	if got := snap.Gauges["distmatrix/workers"]; got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
	// One busy-time observation per pool worker, and no other stage.
	if len(snap.Stages) != 1 || snap.Stages[0].Name != "distmatrix/worker_busy" || snap.Stages[0].Count != 3 {
		t.Errorf("stages = %+v, want worker_busy with 3 observations", snap.Stages)
	}
}

// TestPrunedSentinelPlacement: below-cut pairs hold their exact values,
// above-cut pairs read as Sentinel, the diagonal stays zero.
func TestPrunedSentinelPlacement(t *testing.T) {
	l := &lineMetric{x: []float64{0, 1, 2, 50, 51, 103}}
	n := len(l.x)
	g := ComputeSparse(l.x, 0, l.dist, Options{Parallelism: 1, Cut: 10})
	for i := 0; i < n; i++ {
		if g.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, g.At(i, i))
		}
		for j := i + 1; j < n; j++ {
			want := l.dist(i, j)
			got := g.At(i, j)
			if want > 10 {
				if !IsSentinel(got) {
					t.Errorf("(%d,%d) = %v, want Sentinel (exact %v > cut)", i, j, got, want)
				}
			} else if got != want {
				t.Errorf("(%d,%d) = %v, want exact %v", i, j, got, want)
			}
			if got != g.At(j, i) {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// TestPrunedAdversarialKey: a useless key (always 0), and a key equal to
// the exact distance — so that every band decision sits exactly on the
// cut for pairs at the cut — keep the graph correct: the index may only
// skip pairs the cut proves irrelevant. The cut is itself one of the
// distances.
func TestPrunedAdversarialKey(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40
	l := randLineMetric(rng, n)
	cut := l.dist(3, 17)
	want := naiveMatrix(n, l.dist, cut)
	for _, par := range []int{1, 0} {
		for name, g := range map[string]*Graph{
			"zero":  ComputeSparse(make([]float64, n), 0, l.dist, Options{Parallelism: par, Cut: cut}),
			"exact": ComputeSparse(l.x, 0, l.dist, Options{Parallelism: par, Cut: cut}),
		} {
			if err := graphMatchesGated(g, want); err != nil {
				t.Errorf("%s key, parallelism %d: %v", name, par, err)
			}
		}
	}
}

// TestSparseBandEdgeAndGate pins the two decisions the fill makes on
// its own: a pair whose key gap equals the widened cut exactly is inside
// the band (evaluated, here found above the cut), one just past it is
// not; and a loose key's band pairs above the cut are evaluated, then
// stored as Sentinel. Both graphs match the gated matrix at every worker
// count, and the counters say which pairs each layer decided.
func TestSparseBandEdgeAndGate(t *testing.T) {
	const cut = 1.0
	w := cut * (1 + boundSlack)
	edge := &lineMetric{x: []float64{0, w, 2 * w, -math.Nextafter(w, 2)}}
	if edge.x[2]-edge.x[1] != w || edge.x[0]-edge.x[3] <= w {
		t.Fatal("edge fixture lost its exact gaps")
	}
	gate := &lineMetric{x: []float64{0, 0.5, 1, 1.5, 2, 2.5, 9}}
	for _, c := range []struct {
		name        string
		l           *lineMetric
		key         []float64
		band, gated int64
	}{
		// Pairs (0,1), (1,2): gap w each, so in the band and gated;
		// (3,0) is one ulp wider and never evaluated.
		{"band edge", edge, edge.x, 2, 2},
		// Half the coordinate: the band reaches 2·cut, and the pairs
		// 1.5 or 2 apart (3 + 2 of them) are evaluated and gated.
		{"gate inside band", gate, gate.looseKey(), 14, 5},
	} {
		want := naiveMatrix(len(c.l.x), c.l.dist, cut)
		for _, workers := range []int{1, 2, 3} {
			reg := metrics.New()
			g := ComputeSparse(c.key, 0, c.l.dist, Options{Parallelism: workers, Cut: cut, Metrics: reg})
			if err := graphMatchesGated(g, want); err != nil {
				t.Errorf("%s, workers=%d: %v", c.name, workers, err)
			}
			if st := readCounters(reg); st.exact != c.band || st.gated != c.gated {
				t.Errorf("%s, workers=%d: %d evaluated, %d gated; want %d and %d", c.name, workers, st.exact, st.gated, c.band, c.gated)
			}
		}
	}
}

// TestComputeSparseDegenerate: fewer than two items is an empty graph of
// the right size.
func TestComputeSparseDegenerate(t *testing.T) {
	for n := 0; n < 2; n++ {
		g := ComputeSparse(make([]float64, n), 0, nil, Options{Cut: 1})
		if g.N() != n || g.Pairs() != 0 {
			t.Errorf("n=%d: N() = %d, Pairs() = %d", n, g.N(), g.Pairs())
		}
	}
}

func ExampleOptions_pruned() {
	// Ten points in two far-apart clumps: with a cut of 5 no cross-clump
	// pair is ever looked at.
	x := []float64{0, 1, 2, 3, 4, 100, 101, 102, 103, 104}
	l := &lineMetric{x: x}
	reg := metrics.New()
	g := ComputeSparse(x, 0, l.dist, Options{Parallelism: 1, Cut: 5, Metrics: reg})
	st := readCounters(reg)
	fmt.Printf("within: %v  across: sentinel=%v  exact evals: %d of %d\n",
		g.At(0, 4), IsSentinel(g.At(0, 9)), st.exact, st.total)
	// Output:
	// within: 4  across: sentinel=true  exact evals: 20 of 45
}
