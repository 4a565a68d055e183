package distmatrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// absDist builds a DistFunc over scalar points.
func absDist(pts []float64) DistFunc {
	return func(i, j int) float64 {
		return math.Abs(pts[i] - pts[j])
	}
}

func randomPoints(rng *rand.Rand, n int) []float64 {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = rng.NormFloat64() * 100
	}
	return pts
}

func TestComputeDegenerate(t *testing.T) {
	for _, n := range []int{0, 1} {
		if m := Compute(n, nil, Options{}); m.N() != n {
			t.Errorf("n=%d: N() = %d", n, m.N())
		}
	}
	if m := Compute(-1, nil, Options{}); m.N() != 0 {
		t.Errorf("negative dimension: N() = %d, want the empty matrix", m.N())
	}
}

func TestComputeSmallKnown(t *testing.T) {
	pts := []float64{0, 1, 5}
	m := Compute(3, absDist(pts), Options{Parallelism: 1})
	want := [][]float64{{0, 1, 5}, {1, 0, 4}, {5, 4, 0}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != want[i][j] {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

// The pool must produce a matrix bit-identical to the inline single
// worker, across sizes spanning the sequential cutoff and worker counts
// exceeding the row count.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 17, 47, 48, 49, 100, 257} {
		pts := randomPoints(rng, n)
		// An irrational-ish transform so values exercise the full
		// mantissa, making "bit-identical" a real claim.
		dist := func(i, j int) float64 {
			return math.Sqrt(math.Abs(pts[i]-pts[j])) * math.Pi
		}
		seq := Compute(n, dist, Options{Parallelism: 1})
		for _, par := range []int{2, 3, 8, n + 5} {
			got := Compute(n, dist, Options{Parallelism: par})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if sv, gv := seq.At(i, j), got.At(i, j); math.Float64bits(sv) != math.Float64bits(gv) {
						t.Fatalf("n=%d par=%d: At(%d,%d) = %v, sequential %v", n, par, i, j, gv, sv)
					}
				}
			}
		}
	}
}

func TestMatrixSymmetricZeroDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 64
	m := Compute(n, absDist(randomPoints(rng, n)), Options{Parallelism: 4})
	for i := 0; i < n; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("diagonal At(%d,%d) = %v", i, i, m.At(i, i))
		}
		for j := i + 1; j < n; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// Below the cutoff, Compute must not spin up workers: a dist function
// that records goroutine fan-out via call interleaving can't observe
// that directly, so instead assert via Options.Workers.
func TestSequentialCutoff(t *testing.T) {
	if w := (Options{Parallelism: 8}).Workers(DefaultSequentialCutoff - 1); w != 1 {
		t.Errorf("below the cutoff: workers = %d, want 1", w)
	}
	if w := (Options{Parallelism: 8}).Workers(DefaultSequentialCutoff); w != 8 {
		t.Errorf("at the cutoff: workers = %d, want 8", w)
	}
	if w := (Options{}).Workers(DefaultSequentialCutoff); w != runtime.NumCPU() {
		t.Errorf("Parallelism 0: workers = %d, want NumCPU = %d", w, runtime.NumCPU())
	}
}

func TestDistFuncAdapter(t *testing.T) {
	m := Compute(3, absDist([]float64{0, 2, 7}), Options{Parallelism: 1})
	f := m.DistFunc()
	if f(0, 2) != 7 || f(2, 1) != 5 {
		t.Errorf("adapter: f(0,2)=%v f(2,1)=%v", f(0, 2), f(2, 1))
	}
}

func BenchmarkCompute(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{256, 1024} {
		pts := randomPoints(rng, n)
		// A dist with enough work per call (~1µs) to resemble an EMD
		// evaluation rather than a single subtraction.
		dist := func(i, j int) float64 {
			var acc float64
			for k := 0; k < 200; k++ {
				acc += math.Sqrt(math.Abs(pts[i]-pts[j]) + float64(k))
			}
			return acc
		}
		for _, par := range []int{1, 0} {
			name := fmt.Sprintf("n=%d/par=seq", n)
			if par == 0 {
				name = fmt.Sprintf("n=%d/par=numcpu", n)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Compute(n, dist, Options{Parallelism: par})
				}
			})
		}
	}
}
