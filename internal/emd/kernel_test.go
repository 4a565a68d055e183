package emd

import (
	"math"
	"math/rand"
	"testing"
)

// refDistance1D is the general merge distance1D replaced: tick by tick
// over the merged support, each side advanced past every position equal
// to the tick, and the first tick's term skipped. It stays as the oracle
// the kernel must match bit for bit.
func refDistance1D(a, b signature) float64 {
	var (
		total    float64
		cdfA     float64
		cdfB     float64
		i, j     int
		prevTick float64
		started  bool
	)
	for i < len(a.pos) || j < len(b.pos) {
		var tick float64
		switch {
		case i >= len(a.pos):
			tick = b.pos[j]
		case j >= len(b.pos):
			tick = a.pos[i]
		case a.pos[i] <= b.pos[j]:
			tick = a.pos[i]
		default:
			tick = b.pos[j]
		}
		if started {
			total += math.Abs(cdfA-cdfB) * (tick - prevTick)
		}
		for i < len(a.pos) && a.pos[i] == tick {
			cdfA += a.w[i]
			i++
		}
		for j < len(b.pos) && b.pos[j] == tick {
			cdfB += b.w[j]
			j++
		}
		prevTick = tick
		started = true
	}
	return total
}

// TestKernelMatchesReference: distance1D equals the reference merge bit
// for bit (math.Float64bits, so a sign of zero counts) on random
// signatures drawn from a small shared grid — most ticks hit both sides
// — with negative positions, signed zeros, one-point signatures and
// repeated input positions that newSignature coalesces.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	grid := []float64{-7.5, -3, -1e-3, math.Copysign(0, -1), 0, 0.1, 0.3, 2, 2.5, 40}
	draw := func() signature {
		k := 1 + rng.Intn(12)
		pos, w := make([]float64, k), make([]float64, k)
		for i := range pos {
			if rng.Intn(4) == 0 {
				pos[i] = rng.NormFloat64() * 5
			} else {
				pos[i] = grid[rng.Intn(len(grid))]
			}
			w[i] = rng.Float64()
		}
		w[rng.Intn(k)] += 0.5
		s, err := newSignature(pos, w)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := draw(), draw()
		if trial%7 == 0 {
			b = a
		}
		got, want := distance1D(a, b), refDistance1D(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: %v (%x) != reference %v (%x)\na = %+v\nb = %+v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), a, b)
		}
	}
}
