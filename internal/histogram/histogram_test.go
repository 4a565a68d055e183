package histogram

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// totalMass sums the histogram's bins (1 up to rounding).
func totalMass(h *Histogram) float64 {
	var t float64
	for _, m := range h.Mass {
		t += m
	}
	return t
}

func TestFDBinWidthFormula(t *testing.T) {
	// For 1..8, IQR (type-7) is Q3-Q1 = 6.25-2.75 = 3.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got, err := FDBinWidth(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3.5 * math.Pow(8, -1.0/3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("FDBinWidth = %v, want %v", got, want)
	}
}

func TestFDBinWidthErrors(t *testing.T) {
	if _, err := FDBinWidth(nil); err != ErrNoSamples {
		t.Errorf("FDBinWidth(nil) err = %v, want ErrNoSamples", err)
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil); err != ErrNoSamples {
		t.Errorf("Build(nil) err = %v, want ErrNoSamples", err)
	}
}

func TestBuildNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Build([]float64{1, bad}); err == nil {
			t.Errorf("Build with %v: expected error", bad)
		}
	}
}

func TestBuildDegenerate(t *testing.T) {
	// All-equal sample: IQR = 0 → single bin with all mass.
	h, err := Build([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 1 || h.Mass[0] != 1 {
		t.Errorf("degenerate histogram = %v", h)
	}
	if h.Min != 5 || h.Width != 1 {
		t.Errorf("degenerate geometry = min %v width %v", h.Min, h.Width)
	}
	if h.N != 4 {
		t.Errorf("N = %d", h.N)
	}

	// Single sample is also degenerate.
	h, err = Build([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 1 || h.Center(0) != 3.5 {
		t.Errorf("single-sample histogram = %v center %v", h, h.Center(0))
	}
}

func TestBuildZeroIQRWideRange(t *testing.T) {
	// IQR is 0 but the range is not: mass collapses to one bin by the
	// documented fallback.
	xs := []float64{0, 1, 1, 1, 1, 1, 1, 9}
	h, err := Build(xs)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 1 {
		t.Errorf("zero-IQR histogram bins = %d, want 1", h.Bins())
	}
}

func TestBuildBinCount(t *testing.T) {
	// Uniform 0..100 with n=1000: FD width = 2*IQR*n^(-1/3) ≈ 2*50*0.1 = 10,
	// so ~10 bins.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	h, err := Build(xs)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() < 8 || h.Bins() > 13 {
		t.Errorf("bins = %d, want ≈10", h.Bins())
	}
}

func TestBuildMaxBinsCap(t *testing.T) {
	// A sample engineered for a huge bin count: tight IQR, huge range.
	xs := make([]float64, 0, 1000)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 990; i++ {
		xs = append(xs, rng.Float64()) // IQR ≈ 0.5
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 1e6*float64(i+1)) // stretch the range
	}
	h, err := Build(xs)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != MaxBins {
		t.Errorf("bins = %d, want capped at %d", h.Bins(), MaxBins)
	}
	if math.Abs(totalMass(h)-1) > 1e-9 {
		t.Errorf("mass = %v, want 1", totalMass(h))
	}
}

func TestBuildRightEdgeSample(t *testing.T) {
	// The maximum sample must land in the last bin, not overflow.
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h, err := Build(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(totalMass(h)-1) > 1e-9 {
		t.Errorf("mass = %v, want 1", totalMass(h))
	}
}

func TestCentersAndSignature(t *testing.T) {
	h := &Histogram{Min: 10, Width: 2, Mass: []float64{0.5, 0, 0.5}, N: 2}
	for i, want := range []float64{11, 13, 15} {
		if c := h.Center(i); c != want {
			t.Errorf("Center(%d) = %v, want %v", i, c, want)
		}
	}
	pos, w := h.Signature()
	if len(pos) != 2 || pos[0] != 11 || pos[1] != 15 || w[0] != 0.5 || w[1] != 0.5 {
		t.Errorf("Signature = %v, %v", pos, w)
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

// Property: for any valid sample, the histogram mass sums to 1, every bin
// is non-negative, and the bin geometry covers the sample range.
func TestBuildPropertyMassConservation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0:0]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		h, err := Build(xs)
		if err != nil {
			return false
		}
		if math.Abs(totalMass(h)-1) > 1e-6 {
			return false
		}
		for _, m := range h.Mass {
			if m < 0 {
				return false
			}
		}
		lo := slices.Min(xs)
		hi := slices.Max(xs)
		right := h.Min + float64(len(h.Mass))*h.Width
		return h.Min <= lo && right >= hi-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: histograms of shifted samples are shifted histograms — the
// mass vector is identical and Min moves by the shift. This underpins the
// EMD shift-distance property the paper relies on.
func TestBuildPropertyShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 30
		}
		shift := rng.Float64() * 1000
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		h1, err1 := Build(xs)
		h2, err2 := Build(shifted)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if h1.Bins() != h2.Bins() {
			t.Fatalf("trial %d: bins %d vs %d", trial, h1.Bins(), h2.Bins())
		}
		for i := range h1.Mass {
			if math.Abs(h1.Mass[i]-h2.Mass[i]) > 1e-9 {
				t.Fatalf("trial %d: mass differs at bin %d", trial, i)
			}
		}
		if math.Abs((h2.Min-h1.Min)-shift) > 1e-6 {
			t.Fatalf("trial %d: min shift = %v, want %v", trial, h2.Min-h1.Min, shift)
		}
	}
}

func BenchmarkBuild1k(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 60
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(xs); err != nil {
			b.Fatal(err)
		}
	}
}
