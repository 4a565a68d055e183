package emd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Distance1D is the one-shot form of the closed-form distance the tests
// drive: validate and prepare both signatures, then compare.
func Distance1D(pos1, w1, pos2, w2 []float64) (float64, error) {
	s1, err := NewSignature(pos1, w1)
	if err != nil {
		return 0, err
	}
	s2, err := NewSignature(pos2, w2)
	if err != nil {
		return 0, err
	}
	return s1.Distance(s2), nil
}

func TestDistance1DKnownValues(t *testing.T) {
	tests := []struct {
		name               string
		pos1, w1, pos2, w2 []float64
		want               float64
	}{
		{
			name: "identical point masses",
			pos1: []float64{5}, w1: []float64{1},
			pos2: []float64{5}, w2: []float64{1},
			want: 0,
		},
		{
			name: "point masses distance 3",
			pos1: []float64{2}, w1: []float64{1},
			pos2: []float64{5}, w2: []float64{1},
			want: 3,
		},
		{
			name: "split mass to one point",
			pos1: []float64{0, 2}, w1: []float64{0.5, 0.5},
			pos2: []float64{1}, w2: []float64{1},
			want: 1, // each half moves distance 1
		},
		{
			name: "two-point swap",
			pos1: []float64{0, 10}, w1: []float64{0.5, 0.5},
			pos2: []float64{1, 9}, w2: []float64{0.5, 0.5},
			want: 1, // 0→1 and 10→9, each carrying half mass
		},
		{
			name: "unnormalized weights are normalized",
			pos1: []float64{0}, w1: []float64{10},
			pos2: []float64{4}, w2: []float64{2},
			want: 4,
		},
		{
			name: "asymmetric split",
			pos1: []float64{0}, w1: []float64{1},
			pos2: []float64{1, 3}, w2: []float64{0.75, 0.25},
			want: 0.75*1 + 0.25*3,
		},
		{
			name: "duplicate positions coalesce",
			pos1: []float64{1, 1, 4}, w1: []float64{0.25, 0.25, 0.5},
			pos2: []float64{1, 4}, w2: []float64{0.5, 0.5},
			want: 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Distance1D(tt.pos1, tt.w1, tt.pos2, tt.w2)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("Distance1D = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistance1DErrors(t *testing.T) {
	ok := []float64{1}
	okW := []float64{1}
	tests := []struct {
		name               string
		pos1, w1, pos2, w2 []float64
	}{
		{"empty first", nil, nil, ok, okW},
		{"empty second", ok, okW, nil, nil},
		{"zero mass", []float64{1, 2}, []float64{0, 0}, ok, okW},
		{"negative weight", []float64{1}, []float64{-1}, ok, okW},
		{"nan weight", []float64{1}, []float64{math.NaN()}, ok, okW},
		{"inf position", []float64{math.Inf(1)}, []float64{1}, ok, okW},
		{"length mismatch", []float64{1, 2}, []float64{1}, ok, okW},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Distance1D(tt.pos1, tt.w1, tt.pos2, tt.w2); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// randomSignature builds a valid random signature with k points.
func randomSignature(rng *rand.Rand, k int) (pos, w []float64) {
	pos = make([]float64, k)
	w = make([]float64, k)
	for i := 0; i < k; i++ {
		pos[i] = rng.Float64() * 100
		w[i] = rng.Float64() + 0.01
	}
	return pos, w
}

func TestDistance1DMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		k1, k2, k3 := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		p1, w1 := randomSignature(rng, k1)
		p2, w2 := randomSignature(rng, k2)
		p3, w3 := randomSignature(rng, k3)

		d12, err := Distance1D(p1, w1, p2, w2)
		if err != nil {
			t.Fatal(err)
		}
		d21, err := Distance1D(p2, w2, p1, w1)
		if err != nil {
			t.Fatal(err)
		}
		d11, err := Distance1D(p1, w1, p1, w1)
		if err != nil {
			t.Fatal(err)
		}
		d13, err := Distance1D(p1, w1, p3, w3)
		if err != nil {
			t.Fatal(err)
		}
		d23, err := Distance1D(p2, w2, p3, w3)
		if err != nil {
			t.Fatal(err)
		}
		if d12 < 0 {
			t.Fatalf("trial %d: negative distance %v", trial, d12)
		}
		if math.Abs(d12-d21) > 1e-9 {
			t.Fatalf("trial %d: asymmetric %v vs %v", trial, d12, d21)
		}
		if math.Abs(d11) > 1e-9 {
			t.Fatalf("trial %d: self-distance %v", trial, d11)
		}
		if d13 > d12+d23+1e-9 {
			t.Fatalf("trial %d: triangle violated: %v > %v + %v", trial, d13, d12, d23)
		}
	}
}

// The EMD between a distribution and its translate equals the shift — the
// property that makes EMD robust to timing offsets between bots.
func TestDistance1DShiftProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		pos, w := randomSignature(rng, k)
		shift := rng.Float64() * 500
		shifted := make([]float64, k)
		for i, p := range pos {
			shifted[i] = p + shift
		}
		d, err := Distance1D(pos, w, shifted, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-shift) > 1e-7 {
			t.Fatalf("trial %d: shift distance = %v, want %v", trial, d, shift)
		}
	}
}

// Cross-validation: the closed-form 1-D EMD must agree with the general
// transportation-simplex solver under the |a−b| ground distance.
func TestDistance1DMatchesTransportSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	abs := func(a, b float64) float64 { return math.Abs(a - b) }
	for trial := 0; trial < 80; trial++ {
		k1, k2 := 1+rng.Intn(12), 1+rng.Intn(12)
		p1, w1 := randomSignature(rng, k1)
		p2, w2 := randomSignature(rng, k2)
		closed, err := Distance1D(p1, w1, p2, w2)
		if err != nil {
			t.Fatal(err)
		}
		general, err := DistanceGeneral(p1, w1, p2, w2, abs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(closed-general) > 1e-7 {
			t.Fatalf("trial %d: closed form %v vs simplex %v", trial, closed, general)
		}
	}
}

func TestTransportKnownOptimal(t *testing.T) {
	// Classic 3×4 transportation example with known optimum 743
	// (a standard textbook instance).
	supply := []float64{15, 25, 10}
	demand := []float64{5, 15, 15, 15}
	cost := [][]float64{
		{10, 2, 20, 11},
		{12, 7, 9, 20},
		{4, 14, 16, 18},
	}
	flow, total, err := Transport(supply, demand, cost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-435) > 1e-9 {
		t.Errorf("total = %v, want 435", total)
	}
	checkFeasible(t, flow, supply, demand)
}

func TestTransportDegenerate(t *testing.T) {
	// Supplies exactly matching individual demands creates degeneracy at
	// every northwest-corner step.
	supply := []float64{10, 10, 10}
	demand := []float64{10, 10, 10}
	cost := [][]float64{
		{0, 5, 5},
		{5, 0, 5},
		{5, 5, 0},
	}
	flow, total, err := Transport(supply, demand, cost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total) > 1e-9 {
		t.Errorf("total = %v, want 0 (identity assignment)", total)
	}
	checkFeasible(t, flow, supply, demand)
}

func TestTransportSingleCell(t *testing.T) {
	flow, total, err := Transport([]float64{7}, []float64{7}, [][]float64{{3}})
	if err != nil {
		t.Fatal(err)
	}
	if flow[0][0] != 7 || total != 21 {
		t.Errorf("flow = %v total = %v", flow, total)
	}
}

func TestTransportZeroEntries(t *testing.T) {
	// Zero supplies/demands are legal and produce zero flow rows/columns.
	supply := []float64{0, 5}
	demand := []float64{5, 0}
	cost := [][]float64{{1, 1}, {2, 3}}
	flow, total, err := Transport(supply, demand, cost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("total = %v, want 10", total)
	}
	checkFeasible(t, flow, supply, demand)
}

func TestTransportErrors(t *testing.T) {
	tests := []struct {
		name   string
		supply []float64
		demand []float64
		cost   [][]float64
	}{
		{"no suppliers", nil, []float64{1}, nil},
		{"no consumers", []float64{1}, nil, [][]float64{{}}},
		{"cost rows mismatch", []float64{1}, []float64{1}, nil},
		{"cost cols mismatch", []float64{1}, []float64{1}, [][]float64{{1, 2}}},
		{"negative supply", []float64{-1}, []float64{-1}, [][]float64{{1}}},
		{"negative demand", []float64{1}, []float64{-1}, [][]float64{{1}}},
		{"nan cost", []float64{1}, []float64{1}, [][]float64{{math.NaN()}}},
		{"unbalanced", []float64{5}, []float64{3}, [][]float64{{1}}},
		{"all zero mass", []float64{0}, []float64{0}, [][]float64{{1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Transport(tt.supply, tt.demand, tt.cost); err == nil {
				t.Error("expected error")
			}
		})
	}
	_, _, err := Transport([]float64{5}, []float64{3}, [][]float64{{1}})
	if !errors.Is(err, ErrUnbalanced) {
		t.Errorf("unbalanced error = %v, want ErrUnbalanced", err)
	}
}

func TestTransportRandomAgainstBruteForce(t *testing.T) {
	// For 2×2 problems the optimum has a closed form: try both extreme
	// bases and take the cheaper feasible one.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		a := rng.Float64()*10 + 0.1
		b := rng.Float64()*10 + 0.1
		c := rng.Float64()*10 + 0.1
		d := a + b - c
		if d <= 0 {
			continue
		}
		supply := []float64{a, b}
		demand := []float64{c, d}
		cost := [][]float64{
			{rng.Float64() * 10, rng.Float64() * 10},
			{rng.Float64() * 10, rng.Float64() * 10},
		}
		// One free variable x = flow[0][0] ∈ [max(0, c-b), min(a, c)];
		// cost is linear in x, so the optimum is at an endpoint.
		evalAt := func(x float64) float64 {
			return x*cost[0][0] + (a-x)*cost[0][1] + (c-x)*cost[1][0] + (b-c+x)*cost[1][1]
		}
		lo := math.Max(0, c-b)
		hi := math.Min(a, c)
		want := math.Min(evalAt(lo), evalAt(hi))

		_, total, err := Transport(supply, demand, cost)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(total-want) > 1e-7 {
			t.Fatalf("trial %d: total %v, want %v", trial, total, want)
		}
	}
}

func TestDistanceGeneralSquaredGround(t *testing.T) {
	// With squared ground distance, splitting mass beats moving it whole:
	// EMD(δ₀, ½δ₋₁+½δ₁) = ½·1 + ½·1 = 1 under (a−b)².
	sq := func(a, b float64) float64 { d := a - b; return d * d }
	got, err := DistanceGeneral(
		[]float64{0}, []float64{1},
		[]float64{-1, 1}, []float64{0.5, 0.5},
		sq,
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("squared-ground EMD = %v, want 1", got)
	}
}

func TestDistanceGeneralErrors(t *testing.T) {
	abs := func(a, b float64) float64 { return math.Abs(a - b) }
	if _, err := DistanceGeneral(nil, nil, []float64{1}, []float64{1}, abs); err == nil {
		t.Error("expected error for empty first signature")
	}
	if _, err := DistanceGeneral([]float64{1}, []float64{1}, nil, nil, abs); err == nil {
		t.Error("expected error for empty second signature")
	}
}

func checkFeasible(t *testing.T, flow [][]float64, supply, demand []float64) {
	t.Helper()
	for i, row := range flow {
		var sum float64
		for _, f := range row {
			if f < -1e-9 {
				t.Fatalf("negative flow %v at row %d", f, i)
			}
			sum += f
		}
		if math.Abs(sum-supply[i]) > 1e-7 {
			t.Fatalf("row %d ships %v, supply %v", i, sum, supply[i])
		}
	}
	for j := range demand {
		var sum float64
		for i := range flow {
			sum += flow[i][j]
		}
		if math.Abs(sum-demand[j]) > 1e-7 {
			t.Fatalf("column %d receives %v, demand %v", j, sum, demand[j])
		}
	}
}

func BenchmarkDistance1D128Bins(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	p1, w1 := randomSignature(rng, 128)
	p2, w2 := randomSignature(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distance1D(p1, w1, p2, w2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportSimplex16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p1, w1 := randomSignature(rng, 16)
	p2, w2 := randomSignature(rng, 16)
	abs := func(a, c float64) float64 { return math.Abs(a - c) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DistanceGeneral(p1, w1, p2, w2, abs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSignaturePreparedMatchesDistance1D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n1, n2 := 1+rng.Intn(40), 1+rng.Intn(40)
		pos1, w1 := randomSig(rng, n1)
		pos2, w2 := randomSig(rng, n2)
		want, err := Distance1D(pos1, w1, pos2, w2)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := NewSignature(pos1, w1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewSignature(pos2, w2)
		if err != nil {
			t.Fatal(err)
		}
		// Bit-identical, not merely close: both paths run the same
		// distance1D over the same prepared form.
		if got := s1.Distance(s2); got != want {
			t.Fatalf("trial %d: prepared %v != Distance1D %v", trial, got, want)
		}
		if got := s2.Distance(s1); got != want {
			t.Fatalf("trial %d: prepared reversed %v != %v", trial, got, want)
		}
	}
}

func TestSignatureSelfDistanceZero(t *testing.T) {
	s, err := NewSignature([]float64{3, 1, 2}, []float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Distance(s); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestSignatureErrors(t *testing.T) {
	if _, err := NewSignature([]float64{1}, []float64{0}); !errors.Is(err, ErrEmptySignature) {
		t.Errorf("zero mass err = %v, want ErrEmptySignature", err)
	}
	if _, err := NewSignature([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewSignature([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN position accepted")
	}
	if _, err := NewSignature([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestSignatureCopiesInputs(t *testing.T) {
	pos := []float64{0, 5}
	w := []float64{0.5, 0.5}
	s, err := NewSignature(pos, w)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewSignature([]float64{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Distance(other)
	pos[1], w[0] = 1000, 0.01 // mutate the caller's slices
	if after := s.Distance(other); after != before {
		t.Errorf("prepared signature aliased caller slices: %v != %v", after, before)
	}
}

func randomSig(rng *rand.Rand, n int) (pos, w []float64) {
	pos = make([]float64, n)
	w = make([]float64, n)
	for i := range pos {
		pos[i] = rng.NormFloat64() * 10
		w[i] = rng.Float64()
	}
	// Guarantee positive total mass.
	w[rng.Intn(n)] += 0.5
	return pos, w
}
