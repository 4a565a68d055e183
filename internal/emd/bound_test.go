package emd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
