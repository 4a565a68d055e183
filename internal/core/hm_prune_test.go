package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
// its own small drift so in-family distances are positive), 1,200
// human-like hosts with irregular gaps, and forty long-tailed hosts whose
// signatures hold more than hmBoundCells/2 positions, so that θ_hm's CDF
// prefilter has pairs to bound — 1,640 clusterable hosts, past
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
	for i := 0; i < 40; i++ {
		records = append(records, longTailRecords(rng, addr)...)
		addr++
	}
	return records
}

// longTailRecords is one host with a long signature: 400 flows to one
// server, about two thirds of them on a jittered 30 s timer and the rest
// spread log-uniformly from one second to a few hours. The timer keeps
// the interquartile range, and so the Freedman–Diaconis bins, narrow;
// the spread fills a hundred or so of them.
func longTailRecords(rng *rand.Rand, addr flow.IP) []flow.Record {
	records := make([]flow.Record, 0, 400)
	at := t0()
	for j := 0; j < 400; j++ {
		records = append(records, flow.Record{
			Src: addr, Dst: 0x0E000000, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 10,
			State: flow.StateEstablished,
		})
		gap := 30 + rng.Float64()
		if rng.Float64() < 0.35 {
			gap = math.Exp(rng.Float64() * 9)
		}
		at = at.Add(time.Duration(gap * float64(time.Second)))
	}
	return records
}

// wideSource extracts wideCorpus once for every test that needs the
// population past hmPruneMinHosts.
var wideSource = sync.OnceValue(func() flow.FeatureSource {
	return flow.ExtractFeatureSet(wideCorpus(), flow.FeatureOptions{NewPeerGrace: pruneCfg().NewPeerGrace}, flow.Window{})
})

// graphIsGatedMatrix reports whether g holds exactly the finite cells of
// the gated matrix want: pair for pair (each in its smaller host's row,
// ascending), value for value.
func graphIsGatedMatrix(t *testing.T, g *distmatrix.Graph, want *distmatrix.Matrix) bool {
	t.Helper()
	for i := 0; i < want.N(); i++ {
		nbr, dist := g.Row(i)
		k := 0
		for j := 0; j < want.N(); j++ {
			w := want.At(i, j)
			if j <= i || distmatrix.IsSentinel(w) {
				continue
			}
			if k >= len(nbr) || int(nbr[k]) != j || dist[k] != w {
				t.Logf("row %d entry %d: graph has %v, matrix has %d at %v", i, k, nbr[min(k, len(nbr)):], j, w)
				return false
			}
			k++
		}
		if k != len(nbr) {
			t.Logf("row %d: graph holds %v beyond the matrix's %d finite cells", i, nbr[k:], k)
			return false
		}
	}
	return true
}

// TestHMTestPruneEquivalenceRandomCuts is the gated-matrix invariant
// over real EMD signatures: for random cut thresholds — spanning "gates
// nothing" through "gates everything" — the sparse graph exactly as
// HMTest builds it (mean index + CDF prefilter, inline and pooled) is
// pair for pair and value for value the finite part of the matrix that
// computes every exact distance and only then applies the sentinel.
func TestHMTestPruneEquivalenceRandomCuts(t *testing.T) {
	cfg := pruneCfg()
	_, sigs, _ := hmInputs(t, pruneSource(t), cfg)
	n := len(sigs)
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Log-uniform over ~[0.002, 20]: EMD on the log-time axis for
		// this corpus lives around 0.01–3, so the range crosses from
		// all-sentinel to no-op gating.
		cut := math.Exp(rng.Float64()*9 - 6)
		want := distmatrix.Compute(n, exactEMD(sigs), distmatrix.Options{Parallelism: 1, Cut: cut})
		for _, par := range []int{1, 0} {
			cfg.Parallelism = par
			if !graphIsGatedMatrix(t, hmGraph(sigs, cut, cfg), want) {
				t.Logf("cut=%v parallelism=%d", cut, par)
				return false
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
// hmPruneMinHosts, HMTest calibrates a cut wide enough that the sparse
// graph and the clusterer over it reproduce the plain exhaustive oracle —
// same merges, same diameters, same τ_hm, same Kept set — at every worker
// count, while the kernel's counters show pairs were actually skipped and
// account for every one of them.
func TestHMTestAutoCalibratedPruneMatchesExhaustive(t *testing.T) {
	cfg := pruneCfg()
	src := wideSource()
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
		c := snap.Counters
		if c["distmatrix/pairs_pruned_index"] == 0 || c["distmatrix/pairs_pruned_bound"] == 0 {
			t.Errorf("parallelism=%d: a layer pruned nothing on a multi-family corpus of %d hosts: %v", par, len(hosts), c)
		}
		n := int64(len(hosts))
		if total := c["distmatrix/pairs_total"]; total != n*(n-1)/2 ||
			total != c["distmatrix/pairs"]+c["distmatrix/pairs_pruned_index"]+c["distmatrix/pairs_pruned_bound"] {
			t.Errorf("parallelism=%d: pairs_total = %d, want %d = pairs + pruned_index + pruned_bound (%v)", par, total, n*(n-1)/2, c)
		}
		if gauge := snap.Gauges["pipeline/hm/cut_microemd"]; gauge <= 0 {
			t.Errorf("parallelism=%d: cut_microemd gauge = %d, want > 0 (calibrated cut recorded)", par, gauge)
		}
		if overcut := snap.Gauges["pipeline/hm/overcut"]; overcut != 0 {
			t.Errorf("parallelism=%d: overcut gauge = %d, want 0: calibrated cut must dominate every surviving diameter", par, overcut)
		}
	}
}

// TestHMTestShortSignaturesSkipPrefilter is the other side of the
// prefilter's length rule. Where no two signatures hold more than
// hmBoundCells positions between them, the exact EMD costs no more than
// the bound that would skip it, so hmGraph builds no prefilter: every
// pair in the mean-index band is evaluated exactly, none is pruned by the
// bound, and the graph is still the gated oracle's. The population is
// wideCorpus less its long-tailed hosts, which keep the prefilter busy
// in TestHMTestAutoCalibratedPruneMatchesExhaustive.
func TestHMTestShortSignaturesSkipPrefilter(t *testing.T) {
	cfg := pruneCfg()
	_, all, _ := hmInputs(t, wideSource(), cfg)
	var sigs []*emd.Signature
	for _, s := range all {
		if s.Len() <= hmBoundCells/2 {
			sigs = append(sigs, s)
		}
	}
	if len(sigs) == len(all) || len(sigs) < hmPruneMinHosts {
		t.Fatalf("%d of %d signatures are short: want some long ones, and at least %d short", len(sigs), len(all), hmPruneMinHosts)
	}
	cut, _, err := calibrateCut(sigs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := distmatrix.Compute(len(sigs), exactEMD(sigs), distmatrix.Options{Cut: cut})
	for _, par := range []int{1, 0} {
		reg := metrics.New()
		run := cfg
		run.Parallelism = par
		run.Metrics = reg
		if !graphIsGatedMatrix(t, hmGraph(sigs, cut, run), want) {
			t.Errorf("parallelism=%d: graph diverged from the gated oracle at cut %v", par, cut)
		}
		c := reg.TakeSnapshot().Counters
		band := c["distmatrix/pairs_total"] - c["distmatrix/pairs_pruned_index"]
		if band == 0 || c["distmatrix/pairs"] != band || c["distmatrix/pairs_pruned_bound"] != 0 {
			t.Errorf("parallelism=%d: pairs = %d, pairs_pruned_bound = %d, want every one of the band's %d pairs exact and none bounded",
				par, c["distmatrix/pairs"], c["distmatrix/pairs_pruned_bound"], band)
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

// TestHMTestDenseBelowCutStaysDense: width alone does not choose the
// sparse path. At the paper's 5% cut fraction this corpus keeps half its
// pairs below the calibrated cut — a graph that size is slower and larger
// than the two matrices — so HMTest calibrates, sees it, and clusters
// from the dense matrix: no layer counters, no cut, the oracle's result.
func TestHMTestDenseBelowCutStaysDense(t *testing.T) {
	reg := metrics.New()
	cfg := pruneCfg()
	cfg.CutFraction = 0.05
	hosts, sigs, skipped := hmInputs(t, wideSource(), cfg)
	want, err := hmFromMatrix(hosts, distmatrix.Compute(len(sigs), exactEMD(sigs), distmatrix.Options{}), skipped, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = reg
	if got := runHM(t, wideSource(), cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("HMTest diverged from the exhaustive oracle\n got: %+v\nwant: %+v", got, want)
	}
	snap := reg.TakeSnapshot()
	if share := snap.Gauges["pipeline/hm/below_cut_permille"]; float64(share) < 1000*hmSparseMaxBelowCut {
		t.Fatalf("below_cut_permille = %d: corpus not dense enough at the cut to test the choice", share)
	}
	n := int64(len(hosts))
	if c := snap.Counters; c["distmatrix/pairs_total"] != 0 || c["distmatrix/pairs"] != n*(n-1)/2 || c["pipeline/hm/calibration_pairs"] == 0 {
		t.Errorf("counters = %v, want a calibrated, then plain exhaustive, fill", c)
	}
	if cut := snap.Gauges["pipeline/hm/cut_microemd"]; cut != 0 {
		t.Errorf("cut_microemd = %d, want 0: no cut was applied", cut)
	}
}

// TestHMTestOvercutClamped: a cut far below the data's real spreads
// leaves sentinel pairs inside surviving clusters. The sparse path must
// give what the dense one gives from the matrix gated at the same cut,
// the result must stay finite (diameters clamped, JSON-safe) and the
// overcut gauge must record the event.
func TestHMTestOvercutClamped(t *testing.T) {
	reg := metrics.New()
	cfg := pruneCfg()
	hosts, sigs, skipped := hmInputs(t, pruneSource(t), cfg)
	want, err := hmFromMatrix(hosts, distmatrix.Compute(len(sigs), exactEMD(sigs), distmatrix.Options{Cut: 1e-6}), skipped, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = reg
	got, err := hmFromGraph(hosts, hmGraph(sigs, 1e-6, cfg), skipped, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sparse path diverged from the dense one at the same cut\n got: %+v\nwant: %+v", got, want)
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

// TestHMTestGaugesFollowWindow: one registry serves every window of a
// long-running engine, so each HMTest must leave the θ_hm gauges
// describing its own window. A wide window sets a cut and finds
// clusters; the narrow one after it has no cut; the one after that, with
// a single clusterable host, has no clusters either.
func TestHMTestGaugesFollowWindow(t *testing.T) {
	reg := metrics.New()
	cfg := pruneCfg()
	cfg.Metrics = reg
	gauges := func() map[string]int64 { return reg.TakeSnapshot().Gauges }

	runHM(t, wideSource(), cfg)
	if g := gauges(); g["pipeline/hm/cut_microemd"] <= 0 || g["pipeline/hm/clusters"] <= 0 {
		t.Fatalf("wide window: cut_microemd = %d, clusters = %d, want both > 0", g["pipeline/hm/cut_microemd"], g["pipeline/hm/clusters"])
	}
	// Stale values a narrow window must overwrite, not inherit.
	reg.Gauge("pipeline/hm/overcut").Set(7)

	narrow := runHM(t, pruneSource(t), cfg)
	g := gauges()
	if g["pipeline/hm/cut_microemd"] != 0 {
		t.Errorf("narrow window: cut_microemd = %d, want 0 (no cut was calibrated)", g["pipeline/hm/cut_microemd"])
	}
	if g["pipeline/hm/clusters"] != int64(len(narrow.Clusters)) || g["pipeline/hm/overcut"] != 0 {
		t.Errorf("narrow window: clusters = %d, overcut = %d, want %d and 0", g["pipeline/hm/clusters"], g["pipeline/hm/overcut"], len(narrow.Clusters))
	}

	reg.Gauge("pipeline/hm/overcut").Set(7)
	a, err := NewAnalysisFromSource(pruneSource(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := a.HMTest(HostSet{a.Hosts().Sorted()[0]: true}, 50)
	if err != nil {
		t.Fatal(err)
	}
	g = gauges()
	if one.Clustered != 1 || g["pipeline/hm/clusters"] != 0 || g["pipeline/hm/overcut"] != 0 || g["pipeline/hm/cut_microemd"] != 0 {
		t.Errorf("one-host window: clustered %d, gauges clusters = %d, overcut = %d, cut_microemd = %d, want 1, 0, 0, 0",
			one.Clustered, g["pipeline/hm/clusters"], g["pipeline/hm/overcut"], g["pipeline/hm/cut_microemd"])
	}
}

// TestHMTestWideAllocatesNoMatrix: from hmPruneMinHosts up, θ_hm holds no
// n×n array — not the distance matrix, not the clusterer's working copy
// (the dense path allocates both: 16·n² bytes). What one HMTest allocates
// is proportional to the below-cut graph — at most 64 bytes a pair: 16
// as found, 12 + 12 bucketed then stored, 24 in the clusterer (two
// 8-byte list entries and the pair's one value) — plus per-host work and
// calibration's fixed 384-host mini-matrix, which together must stay
// under half of one 8·n² matrix. (This corpus is dense for a θ_hm
// population: 20% of its pairs are below the calibrated cut, against 8%
// on the benchmark's campus.)
func TestHMTestWideAllocatesNoMatrix(t *testing.T) {
	reg := metrics.New()
	cfg := pruneCfg()
	cfg.Parallelism = 1
	cfg.Metrics = reg
	a, err := NewAnalysisFromSource(wideSource(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := a.Hosts()
	var clustered uint64
	run := func() {
		res, err := a.HMTest(hosts, 50)
		if err != nil {
			t.Fatal(err)
		}
		clustered = uint64(res.Clustered)
	}
	run()
	c := reg.TakeSnapshot().Counters
	pairs := uint64(c["distmatrix/pairs"] - c["distmatrix/pairs_gated"])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if clustered < hmPruneMinHosts {
		t.Fatalf("corpus has %d clusterable hosts, want >= %d", clustered, hmPruneMinHosts)
	}
	matrix := 8 * clustered * clustered
	budget := 64*pairs + matrix/2
	if budget >= 2*matrix {
		t.Fatalf("%d of this corpus's pairs are below the cut: too dense for the budget to exclude the dense path", pairs)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("HMTest over %d hosts, %d pairs below the cut: allocated %d bytes, budget %d, one n×n matrix %d", clustered, pairs, got, budget, matrix)
	if got > budget {
		t.Errorf("allocated %d bytes, want at most 64 per below-cut pair plus half an n×n matrix = %d", got, budget)
	}
}

// TestEachHostFirstErrorByPosition: whatever the pool size, the error
// reported is the one at the smallest failing position, and every
// position ran.
func TestEachHostFirstErrorByPosition(t *testing.T) {
	const n = 500
	for _, par := range []int{1, 0, 7} {
		ran := make([]bool, n)
		err := eachHost(n, par, func(i int) error {
			ran[i] = true
			if i%97 == 41 {
				return fmt.Errorf("position %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "position 41" {
			t.Errorf("parallelism %d: err = %v, want position 41", par, err)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("parallelism %d: position %d never ran", par, i)
			}
		}
	}
	if err := eachHost(0, 4, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Errorf("n=0: %v", err)
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
	cut, below, err := calibrateCut(build(centers), pruneCfg())
	if err != nil {
		t.Fatal(err)
	}
	// A cut below the inter-family gap keeps in-family pairs only: some,
	// and at most the half of all pairs that are in-family.
	if below <= 0 || below > 0.5 {
		t.Errorf("below-cut share = %v, want in (0, 0.5] (two equal families)", below)
	}
	if cut <= 0 {
		t.Fatalf("calibrated cut = %v, want > 0", cut)
	}
	if cut >= 50 {
		t.Errorf("calibrated cut = %v spans the inter-family gap: nothing would prune", cut)
	}

	// Identical histograms everywhere: all distances zero, fallback 1×safety.
	flat := make([]float64, 2*hmCalibrationSample)
	cut, below, err = calibrateCut(build(flat), pruneCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cut != hmCutSafety || below != 1 {
		t.Errorf("degenerate calibration: cut = %v, below-cut share = %v, want %v and 1", cut, below, hmCutSafety)
	}
}
