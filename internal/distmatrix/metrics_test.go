package distmatrix

import (
	"math"
	"testing"

	"plotters/internal/metrics"
)

// Inline and pooled runs must account for every pair exactly once and
// report the pool shape.
func TestComputeMetrics(t *testing.T) {
	dist := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	for _, tc := range []struct {
		name        string
		n           int
		parallelism int
		wantWorkers int64
	}{
		{"sequential", 100, 1, 1},
		{"parallel", 100, 4, 4},
		{"cutoff forces sequential", 10, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			Compute(tc.n, dist, Options{Parallelism: tc.parallelism, Metrics: reg})
			snap := reg.TakeSnapshot()
			wantPairs := int64(tc.n) * int64(tc.n-1) / 2
			if got := snap.Counters["distmatrix/pairs"]; got != wantPairs {
				t.Errorf("pairs = %d, want %d", got, wantPairs)
			}
			if got := snap.Gauges["distmatrix/workers"]; got != tc.wantWorkers {
				t.Errorf("workers = %d, want %d", got, tc.wantWorkers)
			}
			if len(snap.Stages) != 1 || snap.Stages[0].Name != "distmatrix/worker_busy" {
				t.Fatalf("stages = %+v", snap.Stages)
			}
			// One busy-time observation per worker (inline counts as one).
			if got := snap.Stages[0].Count; got != tc.wantWorkers {
				t.Errorf("worker_busy observations = %d, want %d", got, tc.wantWorkers)
			}
		})
	}
}

// Metrics must not change the computed matrix.
func TestComputeMetricsSameValues(t *testing.T) {
	dist := func(i, j int) float64 { return float64(i*31 + j) }
	plain := Compute(80, dist, Options{Parallelism: 3})
	metered := Compute(80, dist, Options{Parallelism: 3, Metrics: metrics.New()})
	for i := 0; i < 80; i++ {
		for j := 0; j < 80; j++ {
			if plain.At(i, j) != metered.At(i, j) {
				t.Fatalf("cell (%d,%d) differs: %v vs %v", i, j, plain.At(i, j), metered.At(i, j))
			}
		}
	}
}
