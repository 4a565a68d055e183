package stats

import (
	"fmt"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. The evaluation figures in the paper (Figures 1, 5, 10) are all
// per-host feature CDFs; ECDF produces the plotted series.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// At returns F(x) = P(X <= x), the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of elements <= x, i.e. the first index with
	// sorted[i] > x.
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(idx) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Points returns the step-function breakpoints (x, F(x)) of the ECDF with
// duplicates collapsed, suitable for plotting or textual dumps.
func (e *ECDF) Points() []CDFPoint {
	pts := make([]CDFPoint, 0, len(e.sorted))
	n := float64(len(e.sorted))
	for i, x := range e.sorted {
		if i+1 < len(e.sorted) && e.sorted[i+1] == x {
			continue // emit only the last occurrence of a tied value
		}
		pts = append(pts, CDFPoint{X: x, F: float64(i+1) / n})
	}
	return pts
}

// Sampled returns n evenly spaced (in probability) points of the ECDF,
// always including the first and last breakpoints. It keeps figure dumps
// small for large samples.
func (e *ECDF) Sampled(n int) []CDFPoint {
	pts := e.Points()
	if n <= 0 || len(pts) <= n {
		return pts
	}
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(pts) - 1) / (n - 1)
		out = append(out, pts[idx])
	}
	return out
}

// CDFPoint is one breakpoint of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	F float64 // cumulative probability at X
}

// FormatCDF renders points as a two-column table with a header, the
// format used by cmd/experiments for CDF figures.
func FormatCDF(name string, pts []CDFPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# x\tF(x)\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%.6g\t%.6f\n", p.X, p.F)
	}
	return b.String()
}
