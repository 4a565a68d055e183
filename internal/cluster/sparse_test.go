package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"plotters/internal/distmatrix"
)

// bandOf is the band-layout graph of a dense matrix: the items in a
// shuffled key order, each position's band the shortest that reaches
// every later position it is not at +Inf from and never ends before the
// band above it, and +Inf in the band's other slots — the shape
// distmatrix.ComputeSparse fills, with gaps inside the band.
func bandOf(m [][]float64) *distmatrix.Graph {
	n := len(m)
	g := &distmatrix.Graph{Order: make([]int32, n), Pos: make([]int32, n), End: make([]int32, n), Off: make([]int, n)}
	for p, i := range rand.New(rand.NewSource(int64(n))).Perm(n) {
		g.Order[p], g.Pos[i] = int32(i), int32(p)
	}
	for p, e := 0, 0; p < n; p++ {
		e = max(e, p+1)
		for q := e; q < n; q++ {
			if !math.IsInf(m[g.Order[p]][g.Order[q]], 1) {
				e = q + 1
			}
		}
		g.End[p], g.Off[p] = int32(e), len(g.Val)
		for q := p + 1; q < e; q++ {
			g.Val = append(g.Val, m[g.Order[p]][g.Order[q]])
		}
	}
	return g
}

// checkSparseMatchesDense draws one random graph and requires
// AgglomerateSparse over it to equal Agglomerate over the same distances
// with +Inf for every absent pair: every Merge field, bit for bit, and so
// every cut. The knobs span the shapes that exercise different code:
// density 0 is the empty graph (nothing but the +Inf chain), 255 is
// complete inside each component; comps > 1 leaves whole components that
// only +Inf links join, more of them than a 5% cut removes, so kept +Inf
// links must chain the smallest slots exactly as the dense fallback
// does; a small weight alphabet makes nearly every selection a tie.
func checkSparseMatchesDense(t *testing.T, seed int64, nRaw, density, alphabet, compsRaw uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(nRaw)%48
	comps := 1 + int(compsRaw)%6
	comp := make([]int, n)
	for i := range comp {
		comp[i] = rng.Intn(comps)
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Inf(1)
			if comp[i] == comp[j] && rng.Intn(255) < int(density) {
				switch alphabet % 8 {
				case 7:
					v = rng.Float64() * 10
				case 6:
					// Tied and not dyadic: averages do not round back to
					// the alphabet.
					v = 0.1 * float64(1+rng.Intn(3))
				default:
					v = float64(rng.Intn(1 + int(alphabet)%8))
				}
			}
			m[i][j], m[j][i] = v, v
		}
	}
	requireSparseEqualsDense(t, m)
}

// requireSparseEqualsDense fails unless the two clusterers agree on m in
// every Merge field, bit for bit, and so on every cut.
func requireSparseEqualsDense(t *testing.T, m [][]float64) {
	t.Helper()
	n := len(m)
	want, err := Agglomerate(n, matrixDist(m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AgglomerateSparse(bandOf(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Merges(), want.Merges()) {
		for k := range want.Merges() {
			if k >= len(got.Merges()) || got.Merges()[k] != want.Merges()[k] {
				t.Fatalf("merge %d of %d differs\n got: %+v\nwant: %+v\nmatrix: %v",
					k, len(want.Merges()), got.Merges()[k:], want.Merges()[k:], m)
			}
		}
		t.Fatalf("sparse produced %d merges, dense %d", len(got.Merges()), len(want.Merges()))
	}
	if g, w := got.CutTopFraction(0.05), want.CutTopFraction(0.05); !reflect.DeepEqual(g, w) {
		t.Fatalf("cuts differ: %v vs %v\nmatrix: %v", g, w, m)
	}
}

// TestAgglomerateSparseRoundedAverageBeatsCachedMinimum reaches the one
// cache-repair branch random graphs almost never do: an average of two
// values equal to a row's cached minimum is mathematically that minimum,
// but (5·0.2 + 1·0.2)/6 rounds one ulp below it, so the row's nearest
// neighbour must move to the merged cluster exactly as the dense
// clusterer moves it. Item 0 is 0.2 from everything (nearest: item 1, by
// the smallest-column rule) while items 2..7 pull together one at a time
// at 0.125 — dyadic, so their own ties stay exact and slot 2 grows to
// five members before taking the sixth.
func TestAgglomerateSparseRoundedAverageBeatsCachedMinimum(t *testing.T) {
	const n = 8
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			switch lo := min(i, j); {
			case i == j:
			case lo == 0:
				m[i][j] = 0.2
			case lo == 1:
				m[i][j] = 0.3
			default:
				m[i][j] = 0.125
			}
		}
	}
	requireSparseEqualsDense(t, m)
	d, err := AgglomerateSparse(bandOf(m))
	if err != nil {
		t.Fatal(err)
	}
	if last := d.Merges()[n-2]; last.B != 1 {
		t.Errorf("item 1 should join last (item 0 having moved to the 0.125 cluster first): %+v", d.Merges())
	}
}

// TestAgglomerateSparseMatchesDense is the differential test of the
// sparse clusterer against the dense one; FuzzAgglomerateSparse runs the
// same body.
func TestAgglomerateSparseMatchesDense(t *testing.T) {
	for _, density := range []uint8{0, 8, 40, 128, 230, 255} {
		for _, alphabet := range []uint8{0, 1, 2, 5, 6, 7} {
			for comps := uint8(0); comps < 6; comps += 2 {
				for seed := int64(0); seed < 12; seed++ {
					checkSparseMatchesDense(t, seed, uint8(17*seed+5), density, alphabet, comps)
				}
			}
		}
	}
	// Slot 2 loses its pair with slot 0 to +Inf when 0 absorbs 1, keeps
	// naming slot 4 after 3 absorbs it, and then survives its own merge
	// with 3: its list still holds the dead slot and the +Inf pair, and
	// the pair value it shares with 5 must come out as the dense average.
	inf := math.Inf(1)
	requireSparseEqualsDense(t, [][]float64{
		{0, 1, 3, inf, inf, inf},
		{1, 0, inf, inf, inf, inf},
		{3, inf, 0, 4, 4, 5},
		{inf, inf, 4, 0, 2, 6},
		{inf, inf, 4, 2, 0, 6},
		{inf, inf, 5, 6, 6, 0},
	})
}

func FuzzAgglomerateSparse(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(128), uint8(2), uint8(1))
	f.Add(int64(2), uint8(47), uint8(255), uint8(7), uint8(0))
	f.Add(int64(3), uint8(20), uint8(0), uint8(0), uint8(3))
	f.Add(int64(4), uint8(40), uint8(30), uint8(1), uint8(5))
	f.Fuzz(checkSparseMatchesDense)
}

func TestAgglomerateSparseErrors(t *testing.T) {
	if _, err := AgglomerateSparse(bandOf(nil)); err != ErrNoItems {
		t.Errorf("n=0 err = %v, want ErrNoItems", err)
	}
	d, err := AgglomerateSparse(bandOf([][]float64{{0}}))
	if err != nil || d.Leaves() != 1 || len(d.Merges()) != 0 {
		t.Errorf("single item: %+v, %v", d, err)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		m := [][]float64{{0, bad}, {bad, 0}}
		if _, err := AgglomerateSparse(bandOf(m)); err == nil {
			t.Errorf("distance %v: expected error", bad)
		}
	}
}
