package emd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// LowerBound is the full scan Σ_t |a_t − b_t| the early-exit
// LowerBoundAtLeast is checked against.
func LowerBound(a, b *CDFSignature) float64 {
	av, bv := a.vals, b.vals
	if len(bv) < len(av) {
		av, bv = bv, av
	}
	bv = bv[:len(av)]
	var sum float64
	for i, x := range av {
		sum += math.Abs(x - bv[i])
	}
	return sum
}

// randSignature draws a small random signature from the quick generator's
// source: positions in [0, 20), weights in (0, 1].
func randSignature(t *testing.T, rng *rand.Rand) *Signature {
	t.Helper()
	n := 1 + rng.Intn(12)
	pos := make([]float64, n)
	w := make([]float64, n)
	for i := range pos {
		pos[i] = rng.Float64() * 20
		w[i] = rng.Float64() + 1e-3
	}
	s, err := NewSignature(pos, w)
	if err != nil {
		t.Fatalf("NewSignature: %v", err)
	}
	return s
}

// gridFor returns a grid spanning both supports.
func gridFor(a, b *Signature) (float64, float64) {
	alo, ahi := a.Support()
	blo, bhi := b.Support()
	return math.Min(alo, blo), math.Max(ahi, bhi)
}

// TestCDFLowerBoundAdmissible is the bound's safety property: for random
// signature pairs and random grid resolutions, the coarsened-CDF L1
// distance never exceeds the exact EMD (up to float rounding slack — the
// pruning layers apply a relative safety margin for the same reason).
func TestCDFLowerBoundAdmissible(t *testing.T) {
	property := func(seed int64, cellsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSignature(t, rng)
		b := randSignature(t, rng)
		cells := 1 + int(cellsRaw)%128
		lo, hi := gridFor(a, b)
		bound := LowerBound(a.CDFSignature(lo, hi, cells), b.CDFSignature(lo, hi, cells))
		exact := a.Distance(b)
		return bound <= exact*(1+1e-9)+1e-12
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMeanLowerBoundAdmissible is the index key's safety property:
// |Mean(a) − Mean(b)| never exceeds the exact EMD by more than MeanSlack
// — with no relative term, because the sparse fill compares the key
// against cuts as small as 1e-6. Signatures run up to 256 bins and sit
// up to 1e6 away from the origin, where the two means are large, nearly
// equal, and summed in a different order than the distance; a shifted
// copy of one signature (EMD = the shift exactly, up to rounding) puts
// the pair on the bound itself.
func TestMeanLowerBoundAdmissible(t *testing.T) {
	property := func(seed int64, binsRaw uint8, offsetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		offset := math.Pow(10, float64(offsetRaw%7)) - 1
		draw := func() ([]float64, []float64) {
			n := 1 + rng.Intn(1+int(binsRaw))
			pos, w := make([]float64, n), make([]float64, n)
			for i := range pos {
				pos[i] = offset + rng.Float64()*12
				w[i] = rng.Float64() + 1e-3
			}
			return pos, w
		}
		posA, wA := draw()
		posB, wB := draw()
		shifted := make([]float64, len(posA))
		for i, x := range posA {
			shifted[i] = x + 1e-7
		}
		a, errA := NewSignature(posA, wA)
		b, errB := NewSignature(posB, wB)
		c, errC := NewSignature(shifted, wA)
		if errA != nil || errB != nil || errC != nil {
			t.Fatal(errA, errB, errC)
		}
		slack := MeanSlack(256, offset+13)
		for _, o := range []*Signature{b, c} {
			if gap, exact := math.Abs(a.Mean()-o.Mean()), a.Distance(o); gap > exact+slack {
				t.Logf("|Δmean| = %v exceeds EMD %v + slack %v (offset %v)", gap, exact, slack, offset)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The margin is a rounding margin, not a loophole: far below any
	// distance θ_hm separates hosts by.
	if slack := MeanSlack(256, 12); slack > 1e-11 {
		t.Errorf("MeanSlack(256, 12) = %v, want a rounding-scale margin", slack)
	}
}

// TestCDFLowerBoundAtLeastAdmissible: the early-exit variant must stay
// admissible for any stop value — a prefix partial sum can never exceed
// the exact EMD — and must agree with the full scan whenever it runs to
// completion (stop above the full sum).
func TestCDFLowerBoundAtLeastAdmissible(t *testing.T) {
	property := func(seed int64, cellsRaw uint8, stopRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSignature(t, rng)
		b := randSignature(t, rng)
		cells := 1 + int(cellsRaw)%128
		lo, hi := gridFor(a, b)
		ca, cb := a.CDFSignature(lo, hi, cells), b.CDFSignature(lo, hi, cells)
		full := LowerBound(ca, cb)
		stop := float64(stopRaw) / 16
		capped := LowerBoundAtLeast(ca, cb, stop)
		exact := a.Distance(b)
		if capped > exact*(1+1e-9)+1e-12 {
			t.Logf("capped bound %v exceeds exact %v (stop %v)", capped, exact, stop)
			return false
		}
		if capped <= stop && capped != full {
			t.Logf("non-exiting capped scan %v differs from full bound %v", capped, full)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCDFLowerBoundExactAtFineGrids: with cells covering every distinct
// position pair the bound converges to the exact distance on simple
// two-spike signatures, confirming the integrals are exact rather than
// merely bounded.
func TestCDFLowerBoundExactAtFineGrids(t *testing.T) {
	a, err := NewSignature([]float64{0, 8}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSignature([]float64{2, 6}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := a.Distance(b)
	lo, hi := gridFor(a, b)
	bound := LowerBound(a.CDFSignature(lo, hi, 4), b.CDFSignature(lo, hi, 4))
	if math.Abs(bound-exact) > 1e-12 {
		t.Errorf("bound = %v, exact = %v: grid aligned with all jumps should be tight", bound, exact)
	}
}

// TestCDFLowerBoundTightensWithResolution: refining the grid by an
// integer factor never loosens the bound (each coarse cell's |Σ| is at
// most the Σ|·| of its refinement).
func TestCDFLowerBoundTightensWithResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randSignature(t, rng)
		b := randSignature(t, rng)
		lo, hi := gridFor(a, b)
		coarse := LowerBound(a.CDFSignature(lo, hi, 8), b.CDFSignature(lo, hi, 8))
		fine := LowerBound(a.CDFSignature(lo, hi, 64), b.CDFSignature(lo, hi, 64))
		if coarse > fine*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: coarse bound %v exceeds fine bound %v", trial, coarse, fine)
		}
	}
}

// TestCDFSignatureDegenerate: zero-cell grids (hi <= lo, cells <= 0)
// yield a zero bound — safe, never pruning.
func TestCDFSignatureDegenerate(t *testing.T) {
	s, err := NewSignature([]float64{3}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CDFSignature{
		s.CDFSignature(3, 3, 16),
		s.CDFSignature(5, 2, 16),
		s.CDFSignature(0, 1, 0),
	} {
		if c.Cells() != 0 {
			t.Errorf("degenerate grid produced %d cells", c.Cells())
		}
	}
	if lb := LowerBound(s.CDFSignature(3, 3, 16), s.CDFSignature(3, 3, 16)); lb != 0 {
		t.Errorf("degenerate bound = %v, want 0", lb)
	}
}

// TestCDFSignatureMassConservation: the integrals of the full-support
// grid sum to ∫ F over [lo, hi]; for a unit spike at lo this is the
// whole span, pinning the integral orientation (CDF, not survival).
func TestCDFSignatureMassConservation(t *testing.T) {
	s, err := NewSignature([]float64{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	c := s.CDFSignature(1, 5, 16)
	var sum float64
	for _, v := range c.vals {
		sum += v
	}
	if math.Abs(sum-4) > 1e-12 {
		t.Errorf("∫F over [1,5] = %v, want 4", sum)
	}
}
