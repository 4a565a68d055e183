package histogram

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"plotters/internal/stats"
)

// refBuild is Build as it was before selection, kept as the oracle that
// TestBuildMatchesReference and FuzzBuild hold the linear-time Build to:
// a sorted copy for the range, the IQR of a second sorted copy
// (stats.IQR), and binning in sorted order. It carries Build's guards
// against bin counts beyond the int range and ranges beyond float64, so
// the two are comparable on every sample.
func refBuild(samples []float64) (*Histogram, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("histogram: non-finite sample %v", s)
		}
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	span := hi - lo
	if math.IsInf(span, 0) {
		return nil, fmt.Errorf("histogram: sample range [%v, %v] is wider than a float64", lo, hi)
	}
	iqr, err := stats.IQR(sorted)
	if err != nil {
		return nil, err
	}
	width := 2 * iqr * math.Pow(float64(len(sorted)), -1.0/3.0)
	if width <= 0 || span == 0 {
		return &Histogram{Min: lo, Width: 1, Mass: []float64{1}, N: len(sorted)}, nil
	}
	ratio := math.Ceil(span / width)
	bins := MaxBins
	if ratio > MaxBins {
		width = span / float64(bins)
	} else {
		bins = max(int(ratio), 1)
	}
	mass := make([]float64, bins)
	unit := 1 / float64(len(sorted))
	for _, s := range sorted {
		idx := int((s - lo) / width)
		if idx >= bins {
			idx = bins - 1
		}
		mass[idx] += unit
	}
	return &Histogram{Min: lo, Width: width, Mass: mass, N: len(sorted)}, nil
}

// sameBuild reports whether Build and refBuild agree on xs: equal
// histograms, or both an error. Build must also leave xs as it was.
func sameBuild(t *testing.T, xs []float64) {
	t.Helper()
	before := append([]float64(nil), xs...)
	got, err := Build(xs)
	want, refErr := refBuild(xs)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("Build(%v): err = %v, reference err = %v", xs, err, refErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build(%v) = %v %v, reference %v %v", xs, got, got.Mass, want, want.Mass)
	}
	if !slices.EqualFunc(xs, before, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("Build reordered its input: %v, was %v", xs, before)
	}
}

// randomSample draws one sample of a shape chosen by kind: n = 1 or 2,
// all equal, heavy ties on a few values, a span of hundreds of decades
// with both signs, log-scaled exponential gaps like θ_hm's, and zero gaps
// with a few long ones.
func randomSample(rng *rand.Rand, kind int) []float64 {
	n := 1 + rng.Intn(300)
	switch kind {
	case 0:
		n = 1
	case 1:
		n = 2
	}
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case 0, 1:
			xs[i] = rng.NormFloat64() * 100
		case 2:
			xs[i] = 7.25
		case 3:
			xs[i] = float64(rng.Intn(3)) * 0.5
		case 4:
			xs[i] = math.Pow(10, rng.Float64()*600-300)
			if rng.Intn(2) == 0 {
				xs[i] = -xs[i]
			}
		case 5:
			xs[i] = math.Log1p(rng.ExpFloat64() * 60)
		default:
			if rng.Intn(50) == 0 {
				xs[i] = rng.Float64() * 1e9
			}
		}
	}
	return xs
}

// Differential property: over 12,000 random samples of every shape
// above, Build equals the sort-based reference bit for bit and never
// reorders its input.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 12000; trial++ {
		sameBuild(t, randomSample(rng, trial%7))
	}
}

// TestBuildHugeBinRatio: samples whose FD bin count is past the int
// range get the capped bin count, and a range past float64 is an error
// (both panicked when the ratio was converted to int first).
func TestBuildHugeBinRatio(t *testing.T) {
	var denormals []float64
	for i := 0; i < 10; i++ {
		denormals = append(denormals, 0, 5e-324)
	}
	gaps := make([]float64, 0, 10001)
	for i := 0; i < 5000; i++ {
		gaps = append(gaps, 0, 1e-9)
	}
	for _, xs := range [][]float64{append(denormals, 1e308), append(gaps, 1e9)} {
		h, err := Build(xs)
		if err != nil {
			t.Fatal(err)
		}
		if h.Bins() != MaxBins || math.Abs(totalMass(h)-1) > 1e-9 {
			t.Errorf("bins = %d, mass = %v; want %d bins holding all the mass", h.Bins(), totalMass(h), MaxBins)
		}
	}
	if _, err := Build([]float64{-1e308, 0, 1e308}); err == nil {
		t.Error("a range wider than a float64 was accepted")
	}
}

// TestSelectKWorstCase: selection stays correct on inputs that defeat
// median-of-three pivots and on inputs long enough to reach the sort
// fallback, for every rank.
func TestSelectKWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := [][]float64{{}, {1}}
	for _, n := range []int{2, 3, 17, 200} {
		asc, desc, organ, same := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range asc {
			asc[i], desc[i], organ[i] = float64(i), float64(n-i), float64(min(i, n-1-i))
			same[i] = 2
		}
		random := make([]float64, n)
		for i := range random {
			random[i] = float64(rng.Intn(n))
		}
		inputs = append(inputs, asc, desc, organ, same, random)
	}
	for _, in := range inputs {
		want := append([]float64(nil), in...)
		sort.Float64s(want)
		for k := range in {
			xs := append([]float64(nil), in...)
			selectK(xs, k)
			if xs[k] != want[k] {
				t.Fatalf("selectK(%v, %d) = %v, want %v", in, k, xs[k], want[k])
			}
			for i, v := range xs {
				if i < k && v > xs[k] || i > k && v < xs[k] {
					t.Fatalf("selectK(%v, %d) left %v at %d on the wrong side of %v", in, k, v, i, xs[k])
				}
			}
		}
	}
}

// FuzzBuild is the differential target: over arbitrary samples, Build
// equals the sort-based reference or both fail. A leading byte
// with its low bit set reads the rest one byte per sample (heavy ties);
// otherwise as little-endian float64s.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 1, 2, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(math.NaN())))
	f.Add(binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(1e308)))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{0}, 1), math.Float64bits(1e308)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		var xs []float64
		if raw[0]&1 == 1 {
			for _, b := range raw[1:] {
				xs = append(xs, float64(b))
			}
		} else {
			for rest := raw[1:]; len(rest) >= 8; rest = rest[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
			}
		}
		sameBuild(t, xs)
	})
}
