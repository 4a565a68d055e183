package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestQuantileBasic(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"median odd", []float64{3, 1, 2}, 0.5, 2},
		{"median even", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"min", []float64{5, 9, 1}, 0, 1},
		{"max", []float64{5, 9, 1}, 1, 9},
		{"single", []float64{7}, 0.3, 7},
		{"q1 interpolated", []float64{1, 2, 3, 4}, 0.25, 1.75},
		{"q3 interpolated", []float64{1, 2, 3, 4}, 0.75, 3.25},
		{"constant sample", []float64{2, 2, 2, 2}, 0.9, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Quantile(tt.xs, tt.q)
			if err != nil {
				t.Fatalf("Quantile(%v, %v) error: %v", tt.xs, tt.q, err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Quantile(%v, %v) = %v, want %v", tt.xs, tt.q, got, tt.want)
			}
		})
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("empty input: got %v, want ErrEmpty", err)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Quantile([]float64{1}, q); err == nil {
			t.Errorf("Quantile(q=%v): expected error", q)
		}
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

// Property: a quantile is always within [min, max], and quantiles are
// monotone in q.
func TestQuantilePropertyBoundsAndMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		lo := slices.Min(xs)
		hi := slices.Max(xs)
		va, err1 := Quantile(xs, a)
		vb, err2 := Quantile(xs, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return va >= lo-1e-9 && vb <= hi+1e-9 && va <= vb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: IQR is non-negative and at most the full range.
func TestIQRProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		iqr, err := IQR(xs)
		if err != nil {
			return false
		}
		lo := slices.Min(xs)
		hi := slices.Max(xs)
		return iqr >= -1e-12 && iqr <= hi-lo+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary quick-generated floats into finite values.
func sanitize(raw []float64) []float64 {
	out := raw[:0:0]
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		// Clamp magnitude so intermediate arithmetic stays finite.
		if x > 1e100 {
			x = 1e100
		}
		if x < -1e100 {
			x = -1e100
		}
		out = append(out, x)
	}
	return out
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Errorf("Mean = %v, %v; want 5", m, err)
	}
	v, err := Variance(xs)
	if err != nil || !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, %v; want %v", v, err, 32.0/7.0)
	}
	sd, err := StdDev(xs)
	if err != nil || !almostEqual(sd, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v, %v", sd, err)
	}
	if v, err := Variance([]float64{42}); err != nil || v != 0 {
		t.Errorf("Variance single = %v, %v; want 0", v, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Variance(nil); err != ErrEmpty {
		t.Errorf("Variance(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Errorf("StdDev(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	s, err := Summarize([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != -1 {
		t.Errorf("Min = %v, want -1", s.Min)
	}
	if s.Max != 7 {
		t.Errorf("Max = %v, want 7", s.Max)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 2, 4", s.Q1, s.Q3)
	}
	if s.String() == "" {
		t.Error("String() should be non-empty")
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestPercentileMatchesQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	p, err1 := Percentile(xs, 50)
	q, err2 := Quantile(xs, 0.5)
	if err1 != nil || err2 != nil || p != q {
		t.Errorf("Percentile(50) = %v, Quantile(0.5) = %v", p, q)
	}
	m, err := Median(xs)
	if err != nil || m != q {
		t.Errorf("Median = %v, want %v", m, q)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d, want 4", e.N())
	}
	pts := e.Points()
	if len(pts) != 3 { // 1, 2 (collapsed), 3
		t.Fatalf("Points len = %d, want 3: %v", len(pts), pts)
	}
	if pts[1].X != 2 || !almostEqual(pts[1].F, 0.75, 1e-12) {
		t.Errorf("Points[1] = %+v, want {2 0.75}", pts[1])
	}
	if pts[2].F != 1 {
		t.Errorf("last point F = %v, want 1", pts[2].F)
	}
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Errorf("NewECDF(nil) err = %v", err)
	}
}

func TestECDFPropertyMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		if a > b {
			a, b = b, a
		}
		hi := slices.Max(xs)
		return e.At(a) <= e.At(b) && e.At(hi) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECDFSampled(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Sampled(11)
	if len(pts) != 11 {
		t.Fatalf("Sampled(11) len = %d", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 999 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].F < pts[i-1].F {
			t.Errorf("sampled points not monotone at %d", i)
		}
	}
	// n larger than the number of breakpoints returns all of them.
	if got := e.Sampled(5000); len(got) != 1000 {
		t.Errorf("Sampled(5000) len = %d, want 1000", len(got))
	}
	if got := e.Sampled(0); len(got) != 1000 {
		t.Errorf("Sampled(0) len = %d, want all points", len(got))
	}
}

func TestFormatCDF(t *testing.T) {
	s := FormatCDF("test", []CDFPoint{{X: 1, F: 0.5}, {X: 2, F: 1}})
	if s == "" || s[0] != '#' {
		t.Errorf("FormatCDF output malformed: %q", s)
	}
}

func TestQuantileSortedAgreesWithQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		a, err1 := Quantile(xs, q)
		b := quantileSorted(sorted, q)
		if err1 != nil || a != b {
			t.Errorf("q=%v: Quantile=%v quantileSorted=%v", q, a, b)
		}
	}
}
