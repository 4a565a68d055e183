package core

import (
	"fmt"
	"math"

	"plotters/internal/cluster"
	"plotters/internal/distmatrix"
	"plotters/internal/emd"
	"plotters/internal/flow"
	"plotters/internal/histogram"
	"plotters/internal/stats"
)

// logScale maps interstitial seconds onto a logarithmic axis (log1p, so
// zero gaps stay finite). Timer structure is multiplicative — a 2-minute
// keepalive versus a 10-second gossip timer — so comparing distributions
// on the log axis lets EMD measure relative timing differences instead of
// being swamped by the absolute size of heavy-tail gaps.
func logScale(samples []float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Log1p(s)
	}
	return out
}

// HMCluster is one cluster of hosts with similar interstitial-time
// distributions.
type HMCluster struct {
	Hosts    []flow.IP
	Diameter float64
	// Kept reports whether the cluster survived the τ_hm diameter filter.
	Kept bool
}

// HMResult is the outcome of θ_hm (§IV-C).
type HMResult struct {
	// Kept is the union of surviving clusters' hosts — the suspected
	// Plotters.
	Kept HostSet
	// Threshold is τ_hm, the diameter cutoff.
	Threshold float64
	// Clusters lists every multi-member cluster with its diameter.
	Clusters []HMCluster
	// Clustered counts hosts that had enough interstitial samples to
	// participate.
	Clustered int
	// Skipped counts input hosts with too few samples to cluster — they
	// cannot pass θ_hm, which is how the test sheds low-activity hosts.
	Skipped int
}

// HMTest is θ_hm (§IV-C), the human- vs. machine-driven test: build a
// Freedman–Diaconis histogram of each host's pooled per-destination flow
// interstitial times, compare hosts pairwise with the Earth Mover's
// Distance, cluster agglomeratively (average linkage, cutting the top
// CutFraction heaviest dendrogram links), and keep clusters of at least
// two hosts whose diameter is at most τ_hm — the pct-th percentile of
// cluster diameters. Machine-driven hosts running the same bot binary
// share timer structure and co-cluster tightly; human-driven hosts do
// not.
func (a *Analysis) HMTest(s HostSet, pct float64) (HMResult, error) {
	hosts, sigs, skipped, err := a.hmSignatures(s)
	if err != nil {
		return HMResult{}, err
	}
	if len(hosts) < 2 {
		return HMResult{Kept: HostSet{}, Skipped: skipped, Clustered: len(hosts)}, nil
	}
	dist, err := hmMatrix(sigs, a.cfg)
	if err != nil {
		return HMResult{}, err
	}
	return hmFromMatrix(hosts, dist, skipped, pct, a.cfg)
}

// hmSignatures is the per-host half of θ_hm: the clusterable hosts of s
// in ascending address order, each with its validated EMD signature, and
// the count of hosts skipped for lack of samples.
func (a *Analysis) hmSignatures(s HostSet) (hosts []flow.IP, sigs []*emd.Signature, skipped int, err error) {
	reg := a.cfg.Metrics
	hosts = make([]flow.IP, 0, len(s))
	sketches := make([]flow.Sketch, 0, len(s))
	// A host's signature ships with the source (a merged shard summary)
	// or is built here from its raw samples; with neither it is skipped.
	t := reg.StartStage("pipeline/hm/histograms")
	for _, h := range s.Sorted() {
		sk, ok := a.sketches[h]
		if f := a.feats[h]; a.sketches == nil && f != nil && len(f.Interstitials) >= a.cfg.MinInterstitialSamples {
			if sk, err = hmSketch(f.Interstitials, a.cfg); err != nil {
				return nil, nil, 0, fmt.Errorf("core: histogram for %v: %w", h, err)
			}
			ok = true
		}
		if !ok {
			skipped++
			continue
		}
		hosts = append(hosts, h)
		sketches = append(sketches, sk)
	}
	t.Stop()
	reg.Gauge("pipeline/hm/clustered").Set(int64(len(hosts)))
	reg.Gauge("pipeline/hm/skipped").Set(int64(skipped))
	if len(hosts) < 2 {
		return hosts, nil, skipped, nil
	}

	// Each host's signature is validated, sorted, and normalized exactly
	// once here; the O(n²) pairwise comparisons then run allocation-free
	// and cannot fail. Hosts are in sorted address order, so any
	// signature error reports the first offending host deterministically.
	t = reg.StartStage("pipeline/hm/signatures")
	sigs = make([]*emd.Signature, len(sketches))
	for i, sk := range sketches {
		sig, err := emd.NewSignature(sk.Positions, sk.Weights)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: EMD signature for %v: %w", hosts[i], err)
		}
		sigs[i] = sig
	}
	t.Stop()
	return hosts, sigs, skipped, nil
}

// hmSketch builds one host's interstitial-time histogram at the
// configured scale and resolution and returns its signature — the
// per-host sketch that is all θ_hm ever looks at. It is deliberately a
// pure function of one host's samples and the config, which is what lets
// the shard-local phase (LocalPass) precompute it far from the
// coordinator that clusters.
func hmSketch(interstitials []float64, cfg Config) (flow.Sketch, error) {
	samples := interstitials
	if !cfg.RawTimeScale {
		samples = logScale(samples)
	}
	hist, err := histogram.Build(samples, cfg.MaxHistogramBins)
	if err != nil {
		return flow.Sketch{}, err
	}
	pos, w := hist.Signature()
	return flow.Sketch{Positions: pos, Weights: w}, nil
}

// hmPruneMinHosts is the clusterable-host count from which θ_hm's
// matrix runs through the pruning layers instead of the plain exhaustive
// fill. The choice is made by size, not by a switch, because size is the
// one thing that decides it: calibration is a fixed exhaustive
// hmCalibrationSample-host mini-matrix, so below a few hundred hosts it
// *is* the whole matrix and pruning can only add to it. Measured with
// BenchmarkHMTest (par, 2 vCPU), pruned ÷ exhaustive wall time was 1.53×
// at n=384, 1.19× at 512, 0.89× at 768 and 0.55× at 1,024; the threshold
// sits at the first measured size with a clear win.
const hmPruneMinHosts = 1024

// hmMatrix is the pairwise half of θ_hm: the EMD distance matrix over
// the hosts' signatures. It is the pipeline's dominant cost; distmatrix
// shards it across cfg.Parallelism workers (0 = all CPUs) with output
// bit-identical at every worker count.
//
// From hmPruneMinHosts hosts up, the fill is pruned. Exact distances
// only matter below the clustering cut — with UPGMA's monotone merge
// weights, the top-fraction cut removes exactly the last merges, so any
// pair provably above every surviving cluster's diameter can be recorded
// as the sentinel without changing a single merge (the derivation lives
// in DESIGN.md). The cut is calibrated from a deterministic host
// subsample, and the pruned matrix is bit-identical to the exhaustive
// one gated at the same cut.
func hmMatrix(sigs []*emd.Signature, cfg Config) (*distmatrix.Matrix, error) {
	reg := cfg.Metrics
	opts := distmatrix.Options{Parallelism: cfg.Parallelism, Metrics: reg}
	if len(sigs) >= hmPruneMinHosts {
		t := reg.StartStage("pipeline/hm/calibrate")
		cut, err := calibrateCut(sigs, cfg)
		t.Stop()
		if err != nil {
			return nil, fmt.Errorf("core: cut calibration: %w", err)
		}
		reg.Gauge("pipeline/hm/cut_microemd").Set(int64(cut * 1e6))
		t = reg.StartStage("pipeline/hm/prefilter")
		opts.Cut, opts.Bound, opts.Pivots = cut, hmBound(sigs, cut), hmPivots
		t.Stop()
	}
	t := reg.StartStage("pipeline/hm/matrix")
	defer t.Stop()
	return distmatrix.Compute(len(sigs), exactEMD(sigs), opts), nil
}

// exactEMD is the matrix's distance function: the exact 1-D EMD between
// two validated signatures.
func exactEMD(sigs []*emd.Signature) distmatrix.DistFunc {
	return func(i, j int) float64 { return sigs[i].Distance(sigs[j]) }
}

// hmBound builds the prefilter for a pruned fill at the given cut:
// coarsened-CDF signatures over one shared grid spanning every host's
// support. The pairwise L1 of these fixed-length vectors lower-bounds
// the exact EMD (admissible — see internal/emd), and costs ~1/40th of an
// exact evaluation.
func hmBound(sigs []*emd.Signature, cut float64) distmatrix.BoundFunc {
	lo, hi := sigs[0].Support()
	for _, s := range sigs[1:] {
		slo, shi := s.Support()
		lo, hi = min(lo, slo), max(hi, shi)
	}
	cdfs := make([]*emd.CDFSignature, len(sigs))
	for i, s := range sigs {
		cdfs[i] = s.CDFSignature(lo, hi, hmBoundCells)
	}
	// The early-exit stop sits just above the kernel's slack-adjusted
	// threshold, so a capped scan that exits has provably cleared it.
	stop := cut * (1 + 1e-6)
	return func(i, j int) float64 { return emd.LowerBoundAtLeast(cdfs[i], cdfs[j], stop) }
}

// hmFromMatrix is the global half of θ_hm: given the clusterable hosts
// (in ascending address order) and their pairwise distance matrix, run
// agglomerative clustering, the top-fraction cut, and the τ_hm diameter
// filter.
func hmFromMatrix(hosts []flow.IP, dist *distmatrix.Matrix, skipped int, pct float64, cfg Config) (HMResult, error) {
	reg := cfg.Metrics
	t := reg.StartStage("pipeline/hm/cluster")
	dendro, err := cluster.Agglomerate(len(hosts), dist.DistFunc())
	if err != nil {
		return HMResult{}, fmt.Errorf("core: clustering: %w", err)
	}
	groups := dendro.CutTopFraction(cfg.CutFraction)
	t.Stop()

	// Multi-member clusters only: a lone machine-like host has no botnet
	// peer to corroborate it.
	var clusters []HMCluster
	var diameters []float64
	var overcut int64
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		diam := clusterSpread(cfg, members, dist.DistFunc())
		if math.IsInf(diam, 1) {
			// A sentinel pair inside a surviving cluster means the cut
			// was tighter than this cluster's true spread — possible
			// only if calibration's subsample underestimated the
			// population by more than hmCutSafety. Record it and clamp
			// to the largest finite value: the cluster can never pass
			// τ_hm, and the result stays JSON-serializable.
			overcut++
			diam = math.MaxFloat64
		}
		ips := make([]flow.IP, len(members))
		for k, m := range members {
			ips[k] = hosts[m]
		}
		clusters = append(clusters, HMCluster{Hosts: ips, Diameter: diam})
		diameters = append(diameters, diam)
	}
	reg.Gauge("pipeline/hm/clusters").Set(int64(len(clusters)))
	reg.Gauge("pipeline/hm/overcut").Set(overcut)
	result := HMResult{Kept: HostSet{}, Clusters: clusters, Clustered: len(hosts), Skipped: skipped}
	if len(clusters) == 0 {
		return result, nil
	}
	threshold, err := stats.Percentile(diameters, pct)
	if err != nil {
		return HMResult{}, fmt.Errorf("core: diameter threshold: %w", err)
	}
	result.Threshold = threshold
	for i := range result.Clusters {
		c := &result.Clusters[i]
		if c.Diameter <= threshold {
			c.Kept = true
			for _, ip := range c.Hosts {
				result.Kept[ip] = true
			}
		}
	}
	return result, nil
}

// Pruning-engine tuning. The cell count trades prefilter cost against
// bound tightness (64 cells over the log-time support resolves the
// timer structure that separates bot families); the pivot count is the
// depth of the triangle-inequality layer behind it; the calibration
// sample bounds the exhaustive mini-matrix auto-calibration pays — it
// must stay large enough that the subsample resolves the population's
// cluster structure (a too-sparse subsample merges across true cluster
// boundaries and overestimates the cut, which costs speed, never
// correctness); the safety factor widens the calibrated cut so a
// subsample's underestimate of the full population's cluster spreads
// stays above the true requirement.
const (
	hmBoundCells        = 64
	hmPivots            = 8
	hmCalibrationSample = 384
	hmCutSafety         = 2.0
)

// calibrateCut derives the prune/gate distance for a pruned fill from a
// deterministic stride subsample of the (address-sorted) clusterable
// hosts: cluster the subsample exhaustively exactly as the full run
// would, take the widest surviving multi-member cluster's true diameter
// — the quantity the equivalence theorem needs the cut to dominate —
// and widen it by hmCutSafety. A subsample with no multi-member
// clusters falls back to its largest observed pairwise distance, which
// prunes little but can never change the result.
func calibrateCut(sigs []*emd.Signature, cfg Config) (float64, error) {
	n := len(sigs)
	m := hmCalibrationSample
	if m > n {
		m = n
	}
	idx := make([]int, m)
	for t := range idx {
		idx[t] = t * n / m
	}
	// The mini-matrix runs without the registry so its exact evaluations
	// stay out of distmatrix/pairs (which must count only the main
	// matrix, keeping Exact ≤ PairsTotal); calibration's cost is
	// reported separately, by this counter and the calibrate stage time.
	cfg.Metrics.Counter("pipeline/hm/calibration_pairs").Add(int64(m) * int64(m-1) / 2)
	mat := distmatrix.Compute(m,
		func(i, j int) float64 { return sigs[idx[i]].Distance(sigs[idx[j]]) },
		distmatrix.Options{Parallelism: cfg.Parallelism})
	dendro, err := cluster.Agglomerate(m, mat.DistFunc())
	if err != nil {
		return 0, err
	}
	var widest float64
	for _, members := range dendro.CutTopFraction(cfg.CutFraction) {
		if len(members) < 2 {
			continue
		}
		if d := cluster.Diameter(members, mat.DistFunc()); d > widest {
			widest = d
		}
	}
	if widest == 0 {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if d := mat.At(i, j); d > widest {
					widest = d
				}
			}
		}
	}
	if widest == 0 {
		// Identical histograms everywhere: any positive cut is correct.
		widest = 1
	}
	return widest * hmCutSafety, nil
}

// clusterSpread computes the cluster statistic the τ_hm filter compares:
// mean pairwise distance by default (robust to one contaminated member —
// a bot sitting on an unusually busy host would otherwise blow up its
// cluster's maximum), or the strict maximum when MaxDiameter is set.
func clusterSpread(cfg Config, members []int, dist func(i, j int) float64) float64 {
	if cfg.MaxDiameter {
		return cluster.Diameter(members, dist)
	}
	return cluster.MeanPairwise(members, dist)
}
