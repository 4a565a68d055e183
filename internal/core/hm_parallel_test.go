package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/histogram"
)

// parallelCorpus synthesizes a population large enough to clear the
// distmatrix sequential cutoff (≥ 48 clusterable hosts): four bot
// families on distinct fixed timers plus a majority of human-like hosts
// with irregular gaps.
func parallelCorpus(t testing.TB) []flow.Record {
	var records []flow.Record
	timers := []time.Duration{10 * time.Second, 30 * time.Second, 45 * time.Second, 2 * time.Minute}
	addr := flow.IP(1)
	for fam, period := range timers {
		for k := 0; k < 6; k++ {
			h := mkHost{addr: addr, flows: 80, bytes: 100, peers: 3, period: period,
				jitterNS: int64(fam+1) * 1000}
			records = append(records, h.records()...)
			addr++
		}
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		records = append(records, humanRecords(rng, addr, float64(5+i%17))...)
		addr++
	}
	return records
}

// humanRecords is one human-like host: 80 flows to a handful of servers
// with irregular, exponentially distributed gaps of the given mean
// (seconds) on top of a one-second floor.
func humanRecords(rng *rand.Rand, addr flow.IP, meanGap float64) []flow.Record {
	records := make([]flow.Record, 0, 80)
	at := t0()
	for j := 0; j < 80; j++ {
		records = append(records, flow.Record{
			Src: addr, Dst: flow.IP(0x0D000000 + uint32(j%4)),
			SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 10,
			State: flow.StateEstablished,
		})
		at = at.Add(time.Duration((1 + rng.ExpFloat64()*meanGap) * float64(time.Second)))
	}
	return records
}

// θ_hm must produce identical detection output — same Kept set, same
// clusters with the same diameters and flags, same τ_hm — whether the
// distance matrix is computed sequentially or by any number of workers.
func TestHMTestParallelMatchesSequential(t *testing.T) {
	records := parallelCorpus(t)
	run := func(parallelism int) HMResult {
		cfg := DefaultConfig()
		cfg.MinInterstitialSamples = 30
		cfg.CutFraction = 0.3
		cfg.Parallelism = parallelism
		a, err := NewAnalysis(records, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.HMTest(a.Hosts(), 50)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	seq := run(1)
	if seq.Clustered < 48 {
		t.Fatalf("corpus too small to exercise the parallel path: %d clusterable hosts", seq.Clustered)
	}
	if len(seq.Clusters) == 0 || len(seq.Kept) == 0 {
		t.Fatalf("degenerate sequential result: %+v", seq)
	}
	for _, par := range []int{0, 2, 4, 16} {
		got := run(par)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("parallelism=%d: result diverged from sequential\n got: %+v\nwant: %+v", par, got, seq)
		}
	}
}

// The full pipeline (which feeds θ_vol ∪ θ_churn survivors into θ_hm)
// must likewise be invariant under the parallelism knob.
func TestFindPlottersParallelMatchesSequential(t *testing.T) {
	records := parallelCorpus(t)
	run := func(parallelism int) *Result {
		cfg := DefaultConfig()
		cfg.MinInterstitialSamples = 30
		cfg.CutFraction = 0.3
		cfg.VolPercentile = 70
		cfg.ChurnPercentile = 70
		cfg.Parallelism = parallelism
		res, err := FindPlotters(records, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq.Suspects, par.Suspects) {
		t.Errorf("suspects diverged: seq %v, par %v", seq.Suspects.Sorted(), par.Suspects.Sorted())
	}
	if !reflect.DeepEqual(seq.HM, par.HM) {
		t.Errorf("HM results diverged:\n seq: %+v\n par: %+v", seq.HM, par.HM)
	}
	if seq.HM.Threshold != par.HM.Threshold {
		t.Errorf("τ_hm diverged: %v vs %v", seq.HM.Threshold, par.HM.Threshold)
	}
}

// hmSketch works in its worker's buffer: whatever the buffer last held,
// the sketch equals the histogram package's own signature of the scaled
// samples; once the buffer has grown, the signature's two slices are all
// it allocates; and the samples it is given are never reordered.
func TestHMSketchInBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	short, long := make([]float64, 40), make([]float64, 2000)
	for _, xs := range [][]float64{short, long} {
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 30
		}
	}
	orig := slices.Clone(short)
	for _, raw := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.RawTimeScale = raw
		scaled := slices.Clone(short)
		if !raw {
			for i, s := range scaled {
				scaled[i] = math.Log1p(s)
			}
		}
		h, err := histogram.Build(scaled)
		if err != nil {
			t.Fatal(err)
		}
		pos, w := h.Signature()
		want := flow.Sketch{Positions: pos, Weights: w}

		var buf sketchBuf
		for _, xs := range [][]float64{long, short} {
			if _, err := hmSketch(xs, cfg, &buf); err != nil {
				t.Fatal(err)
			}
		}
		var got flow.Sketch
		allocs := testing.AllocsPerRun(20, func() {
			if got, err = hmSketch(short, cfg, &buf); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("raw=%v: sketch %v, want %v", raw, got, want)
		}
		if allocs != 2 {
			t.Errorf("raw=%v: %v allocations per sketch, want 2 (positions and weights)", raw, allocs)
		}
	}
	if !slices.Equal(short, orig) {
		t.Error("hmSketch reordered its samples")
	}
}

func TestConfigParallelismValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Parallelism accepted")
	}
	cfg.Parallelism = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("Parallelism=0 rejected: %v", err)
	}
	cfg.Parallelism = 64
	if err := cfg.Validate(); err != nil {
		t.Errorf("Parallelism=64 rejected: %v", err)
	}
}
