package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"plotters/internal/distmatrix"
	"plotters/internal/emd"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// pruneCfg is the shared θ_hm operating point for the equivalence
// tests: same shape as the parallel-correctness tests so the corpus
// yields a rich dendrogram (several bot families plus human hosts).
func pruneCfg() Config {
	cfg := DefaultConfig()
	cfg.MinInterstitialSamples = 30
	cfg.CutFraction = 0.3
	return cfg
}

// runHM runs θ_hm over an already-extracted feature source so the
// per-configuration cost is only the clustering, not re-extraction.
func runHM(t testing.TB, src flow.FeatureSource, cfg Config) HMResult {
	t.Helper()
	a, err := NewAnalysisFromSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.HMTest(a.Hosts(), 50)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func pruneSource(t testing.TB) flow.FeatureSource {
	t.Helper()
	cfg := pruneCfg()
	return flow.ExtractFeatureSet(parallelCorpus(t), flow.FeatureOptions{
		NewPeerGrace: cfg.NewPeerGrace,
	}, flow.Window{})
}

// hmInputs runs the per-host half of θ_hm over every host of src: the
// clusterable hosts and their validated signatures, the inputs of the
// hmMatrix / hmFromMatrix seam the tests below drive directly.
func hmInputs(t testing.TB, src flow.FeatureSource, cfg Config) ([]flow.IP, []*emd.Signature, int) {
	t.Helper()
	a, err := NewAnalysisFromSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts, sigs, skipped, err := a.hmSignatures(a.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	return hosts, sigs, skipped
}

// wideCorpus is parallelCorpus's shape at production width: ten bot
// families on distinct fixed timers (forty hosts each, every host with
// its own small drift so in-family distances are positive) plus 1,200
// human-like hosts with irregular gaps — 1,600 clusterable hosts, past
// hmPruneMinHosts, so HMTest takes the pruned fill.
func wideCorpus() []flow.Record {
	var records []flow.Record
	addr := flow.IP(1)
	for fam := 0; fam < 10; fam++ {
		period := time.Duration(5+fam*fam*3) * time.Second
		for k := 0; k < 40; k++ {
			h := mkHost{addr: addr, flows: 80, bytes: 100, peers: 3, period: period,
				jitterNS: int64(fam+1)*1000 + int64(k)*37}
			records = append(records, h.records()...)
			addr++
		}
	}
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 1200; i++ {
		records = append(records, humanRecords(rng, addr, float64(5+i%37))...)
		addr++
	}
	return records
}

// TestHMTestPruneEquivalenceRandomCuts is the gated-matrix invariant
// over real EMD signatures: for random cut thresholds — spanning "gates
// nothing" through "gates everything" — the pruned fill exactly as
// hmMatrix configures it (CDF prefilter + pivots, inline and pooled) is
// cell for cell the matrix that computes every exact distance and only
// then applies the sentinel (Cut alone).
func TestHMTestPruneEquivalenceRandomCuts(t *testing.T) {
	_, sigs, _ := hmInputs(t, pruneSource(t), pruneCfg())
	n := len(sigs)
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Log-uniform over ~[0.002, 20]: EMD on the log-time axis for
		// this corpus lives around 0.01–3, so the range crosses from
		// all-sentinel to no-op gating.
		cut := math.Exp(rng.Float64()*9 - 6)
		want := distmatrix.Compute(n, exactEMD(sigs), distmatrix.Options{Parallelism: 1, Cut: cut})
		for _, par := range []int{1, 0} {
			got := distmatrix.Compute(n, exactEMD(sigs), distmatrix.Options{
				Parallelism: par, Cut: cut, Bound: hmBound(sigs, cut), Pivots: hmPivots,
			})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got.At(i, j) != want.At(i, j) {
						t.Logf("cut=%v parallelism=%d: cell (%d,%d) = %v, want %v",
							cut, par, i, j, got.At(i, j), want.At(i, j))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHMTestAutoCalibratedPruneMatchesExhaustive pins the headline
// guarantee at the width where the production path prunes: past
// hmPruneMinHosts, HMTest calibrates a cut wide enough that its result
// reproduces the plain exhaustive oracle — same merges, same diameters,
// same τ_hm, same Kept set — at every worker count, while the kernel's
// counters show pairs were actually skipped.
func TestHMTestAutoCalibratedPruneMatchesExhaustive(t *testing.T) {
	cfg := pruneCfg()
	src := flow.ExtractFeatureSet(wideCorpus(), flow.FeatureOptions{NewPeerGrace: cfg.NewPeerGrace}, flow.Window{})
	hosts, sigs, skipped := hmInputs(t, src, cfg)
	if len(hosts) < 1500 {
		t.Fatalf("corpus too narrow: %d clusterable hosts, want >= 1500", len(hosts))
	}
	want, err := hmFromMatrix(hosts, distmatrix.Compute(len(sigs), exactEMD(sigs), distmatrix.Options{}), skipped, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Clusters) == 0 || len(want.Kept) == 0 {
		t.Fatalf("degenerate oracle result: %d clusters, %d kept", len(want.Clusters), len(want.Kept))
	}

	for _, par := range []int{1, 0} {
		reg := metrics.New()
		run := cfg
		run.Parallelism = par
		run.Metrics = reg
		got := runHM(t, src, run)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism=%d: pruned HMTest diverged from the exhaustive oracle\n got: %+v\nwant: %+v", par, got, want)
		}
		snap := reg.TakeSnapshot()
		t.Logf("parallelism=%d: %d hosts, %d clusters, %d kept; %d of %d pairs evaluated exactly",
			par, got.Clustered, len(got.Clusters), len(got.Kept), snap.Counters["distmatrix/pairs"], snap.Counters["distmatrix/pairs_total"])
		if pruned := snap.Counters["distmatrix/pairs_pruned_bound"] + snap.Counters["distmatrix/pairs_pruned_pivot"]; pruned == 0 {
			t.Errorf("parallelism=%d: no pairs pruned on a multi-family corpus of %d hosts", par, len(hosts))
		}
		if gauge := snap.Gauges["pipeline/hm/cut_microemd"]; gauge <= 0 {
			t.Errorf("parallelism=%d: cut_microemd gauge = %d, want > 0 (calibrated cut recorded)", par, gauge)
		}
		if overcut := snap.Gauges["pipeline/hm/overcut"]; overcut != 0 {
			t.Errorf("parallelism=%d: overcut gauge = %d, want 0: calibrated cut must dominate every surviving diameter", par, overcut)
		}
	}
}

// TestHMTestBelowPruneThresholdStaysExhaustive: a population under
// hmPruneMinHosts takes the plain fill — no calibration, no layers, and
// so no pairs_total, which is how consumers read "pruning never
// engaged".
func TestHMTestBelowPruneThresholdStaysExhaustive(t *testing.T) {
	reg := metrics.New()
	cfg := pruneCfg()
	cfg.Metrics = reg
	res := runHM(t, pruneSource(t), cfg)
	if res.Clustered < 2 || res.Clustered >= hmPruneMinHosts {
		t.Fatalf("corpus has %d clusterable hosts, want 2..%d", res.Clustered, hmPruneMinHosts-1)
	}
	snap := reg.TakeSnapshot()
	if total := snap.Counters["distmatrix/pairs_total"]; total != 0 {
		t.Errorf("pairs_total = %d below the size threshold, want 0", total)
	}
	n := int64(res.Clustered)
	if pairs := snap.Counters["distmatrix/pairs"]; pairs != n*(n-1)/2 {
		t.Errorf("pairs = %d, want every one of %d", pairs, n*(n-1)/2)
	}
	if calib := snap.Counters["pipeline/hm/calibration_pairs"]; calib != 0 {
		t.Errorf("calibration_pairs = %d below the size threshold, want 0", calib)
	}
}

// TestHMTestOvercutClamped: a cut far below the data's real spreads
// forces sentinel pairs inside surviving clusters. The result must stay
// finite (diameters clamped, JSON-safe) and the overcut gauge must
// record the event.
func TestHMTestOvercutClamped(t *testing.T) {
	reg := metrics.New()
	cfg := pruneCfg()
	cfg.Metrics = reg
	hosts, sigs, skipped := hmInputs(t, pruneSource(t), cfg)
	gated := distmatrix.Compute(len(sigs), exactEMD(sigs), distmatrix.Options{Cut: 1e-6})
	got, err := hmFromMatrix(hosts, gated, skipped, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got.Clusters {
		if math.IsInf(c.Diameter, 0) || math.IsNaN(c.Diameter) {
			t.Errorf("cluster diameter %v not clamped to a finite value", c.Diameter)
		}
	}
	if math.IsInf(got.Threshold, 0) || math.IsNaN(got.Threshold) {
		t.Errorf("τ_hm = %v not finite", got.Threshold)
	}
	if reg.TakeSnapshot().Gauges["pipeline/hm/overcut"] == 0 {
		t.Error("overcut gauge = 0: a 1e-6 cut must sentinel some surviving cluster's pairs")
	}
}

// TestCalibrateCutSubsample drives calibrateCut through the stride
// subsample path (population larger than hmCalibrationSample) and the
// degenerate all-identical population.
func TestCalibrateCutSubsample(t *testing.T) {
	build := func(centers []float64) []*emd.Signature {
		out := make([]*emd.Signature, len(centers))
		for i, c := range centers {
			s, err := emd.NewSignature([]float64{c, c + 1, c + 2}, []float64{1, 2, 1})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s
		}
		return out
	}
	// Two tight families well apart, with continuous intra-family
	// jitter (so surviving clusters have positive diameters and the
	// no-multi-member fallback stays out of play): the calibrated cut
	// must cover the intra-family spread and stay below the
	// inter-family distance so pruning has something to skip.
	centers := make([]float64, 3*hmCalibrationSample)
	for i := range centers {
		centers[i] = float64(i%2)*50 + 0.001*float64(i)
	}
	cut, err := calibrateCut(build(centers), pruneCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cut <= 0 {
		t.Fatalf("calibrated cut = %v, want > 0", cut)
	}
	if cut >= 50 {
		t.Errorf("calibrated cut = %v spans the inter-family gap: nothing would prune", cut)
	}

	// Identical histograms everywhere: all distances zero, fallback 1×safety.
	flat := make([]float64, 2*hmCalibrationSample)
	cut, err = calibrateCut(build(flat), pruneCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cut != hmCutSafety {
		t.Errorf("degenerate calibration cut = %v, want %v", cut, hmCutSafety)
	}
}
