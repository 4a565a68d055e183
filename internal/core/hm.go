package core

import (
	"fmt"
	"math"
	"sync"

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
	cfg := a.cfg
	reg := cfg.Metrics
	hosts, sigs, skipped, err := a.hmSignatures(s)
	if err != nil {
		return HMResult{}, err
	}
	if len(hosts) >= hmPruneMinHosts {
		t := reg.StartStage("pipeline/hm/calibrate")
		cut, below, err := calibrateCut(sigs, cfg)
		t.Stop()
		if err != nil {
			return HMResult{}, fmt.Errorf("core: cut calibration: %w", err)
		}
		reg.Gauge("pipeline/hm/below_cut_permille").Set(int64(below * 1000))
		if below < hmSparseMaxBelowCut {
			reg.Gauge("pipeline/hm/cut_microemd").Set(int64(cut * 1e6))
			return hmFromGraph(hosts, hmGraph(sigs, cut, cfg), skipped, pct, cfg)
		}
	}
	// The gauges describe this window: one clustered from the dense
	// matrix has no cut, and one with nothing to cluster has no clusters
	// either.
	reg.Gauge("pipeline/hm/cut_microemd").Set(0)
	if len(hosts) < 2 {
		reg.Gauge("pipeline/hm/clusters").Set(0)
		reg.Gauge("pipeline/hm/overcut").Set(0)
		return HMResult{Kept: HostSet{}, Skipped: skipped, Clustered: len(hosts)}, nil
	}
	t := reg.StartStage("pipeline/hm/matrix")
	dist := distmatrix.Compute(len(sigs), exactEMD(sigs), distmatrix.Options{Parallelism: cfg.Parallelism, Metrics: reg})
	t.Stop()
	return hmFromMatrix(hosts, dist, skipped, pct, cfg)
}

// hmSignatures is the per-host half of θ_hm: the clusterable hosts of s
// in ascending address order, each with its validated EMD signature, and
// the count of hosts skipped for lack of samples.
func (a *Analysis) hmSignatures(s HostSet) (hosts []flow.IP, sigs []*emd.Signature, skipped int, err error) {
	reg := a.cfg.Metrics
	// A host's sketch ships with the source (a merged shard summary) or is
	// built here from its raw samples; with neither it is skipped.
	t := reg.StartStage("pipeline/hm/histograms")
	hosts = make([]flow.IP, 0, len(s))
	for _, h := range s.Sorted() {
		_, shipped := a.sketches[h]
		if f := a.feats[h]; shipped || a.sketches == nil && f != nil && len(f.Interstitials) >= a.cfg.MinInterstitialSamples {
			hosts = append(hosts, h)
		}
	}
	skipped = len(s) - len(hosts)
	sketches := make([]flow.Sketch, len(hosts))
	err = eachHost(len(hosts), a.cfg.Parallelism, func(i int) (err error) {
		if a.sketches != nil {
			sketches[i] = a.sketches[hosts[i]]
		} else if sketches[i], err = hmSketch(a.feats[hosts[i]].Interstitials, a.cfg); err != nil {
			return fmt.Errorf("core: histogram for %v: %w", hosts[i], err)
		}
		return nil
	})
	t.Stop()
	if err != nil {
		return nil, nil, 0, err
	}
	reg.Gauge("pipeline/hm/clustered").Set(int64(len(hosts)))
	reg.Gauge("pipeline/hm/skipped").Set(int64(skipped))
	if len(hosts) < 2 {
		return hosts, nil, skipped, nil
	}

	// Each host's signature is validated, sorted, and normalized exactly
	// once here; the pairwise comparisons then run allocation-free and
	// cannot fail.
	t = reg.StartStage("pipeline/hm/signatures")
	defer t.Stop()
	sigs = make([]*emd.Signature, len(hosts))
	err = eachHost(len(hosts), a.cfg.Parallelism, func(i int) (err error) {
		if sigs[i], err = emd.NewSignature(sketches[i].Positions, sketches[i].Weights); err != nil {
			return fmt.Errorf("core: EMD signature for %v: %w", hosts[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return hosts, sigs, skipped, nil
}

// eachHost runs fn(i) for every i in [0, n) on a pool sized like the
// pairwise fill's and returns the error of the smallest failing i: hosts
// are in address order, so that is what a sequential loop stopping at its
// first failure reports. Each fn writes only its own position.
func eachHost(n, parallelism int, fn func(i int) error) error {
	workers := distmatrix.Options{Parallelism: parallelism}.Workers(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// hmPruneMinHosts is the clusterable-host count from which θ_hm works
// from the sparse below-cut graph instead of the dense matrix. Size
// decides, not a switch: calibration is a fixed exhaustive
// hmCalibrationSample-host mini-matrix, so below a few hundred hosts it
// *is* the whole matrix and the sparse path can only add to it. On
// BenchmarkHMTest's corpus (par, 2 vCPU, medians of three alternating
// rounds) sparse ÷ dense wall time was 1.24× at n=384, 0.81× at 512,
// 0.61× at 768, 0.45× at 1,024 and 0.33× at 1,536; the threshold is the
// first measured size with a clear win.
const hmPruneMinHosts = 768

// hmSparseMaxBelowCut is the share of pairs at or below the calibrated cut
// (estimated on the calibration sample) from which even a wide θ_hm
// stays dense: a graph holding a third of the pairs is not sparse. The
// graph and the clusterer's lists cost 64 bytes a pair against the two
// matrices' 16 a cell, and where any signature is long every kept pair
// pays the CDF bound on top of its exact EMD. On the 1,600-host test
// corpus (2 vCPU) sparse ÷ dense wall time was 0.33× with 7% of the pairs
// below the cut, 0.76× with 23% and 1.72× with 53%; `detect-wide` sits at
// 8%. Those hosts' signatures are all short, and the ratios were measured
// while every band pair still paid the bound, so they are an upper bound
// on the sparse side's cost there today.
const hmSparseMaxBelowCut = 1.0 / 3

// hmGraph is the pairwise half of θ_hm from hmPruneMinHosts hosts up:
// the neighbour graph of the pairs whose EMD is at most cut — exactly the
// finite cells of the exhaustive matrix gated there — built without
// visiting the others. Exact distances only matter below the clustering
// cut: UPGMA's merge weights are monotone, so the top-fraction cut removes
// exactly the last merges, and a pair provably above every surviving
// cluster's diameter can stay at the sentinel without changing a single
// merge (derivation in DESIGN.md).
func hmGraph(sigs []*emd.Signature, cut float64, cfg Config) *distmatrix.Graph {
	reg := cfg.Metrics
	t := reg.StartStage("pipeline/hm/prefilter")
	key, slack, bound := hmLowerBounds(sigs, cut)
	t.Stop()
	defer reg.StartStage("pipeline/hm/matrix").Stop()
	return distmatrix.ComputeSparse(key, slack, bound, exactEMD(sigs),
		distmatrix.Options{Parallelism: cfg.Parallelism, Metrics: reg, Cut: cut})
}

// exactEMD is the pairwise distance function: the exact 1-D EMD between
// two validated signatures.
func exactEMD(sigs []*emd.Signature) distmatrix.DistFunc {
	return func(i, j int) float64 { return sigs[i].Distance(sigs[j]) }
}

// hmLowerBounds builds the sparse fill's two admissible lower bounds on
// the exact EMD (both argued in internal/emd): the index key, each
// signature's mean, with the rounding slack of comparing two of them
// against an exact distance; and the prefilter, the L1 distance of
// coarsened-CDF signatures over one grid spanning every host's support,
// nil where every signature is short enough that no pair can pay for it
// (see hmBoundCells).
func hmLowerBounds(sigs []*emd.Signature, cut float64) (key []float64, slack float64, bound distmatrix.BoundFunc) {
	lo, hi := sigs[0].Support()
	bins := 0
	key = make([]float64, len(sigs))
	for i, s := range sigs {
		slo, shi := s.Support()
		lo, hi = min(lo, slo), max(hi, shi)
		bins = max(bins, s.Len())
		key[i] = s.Mean()
	}
	slack = emd.MeanSlack(bins, max(math.Abs(lo), math.Abs(hi)))
	if 2*bins <= hmBoundCells {
		return key, slack, nil // no pair holds more positions than the bound scans
	}
	cdfs := make([]*emd.CDFSignature, len(sigs))
	for i, s := range sigs {
		cdfs[i] = s.CDFSignature(lo, hi, hmBoundCells)
	}
	// The early-exit stop sits just above the kernel's slack-adjusted
	// threshold, so a capped scan that exits has provably cleared it.
	stop := cut * (1 + 1e-6)
	return key, slack, func(i, j int) float64 { return emd.LowerBoundAtLeast(cdfs[i], cdfs[j], stop) }
}

// hmFromMatrix and hmFromGraph are the global half of θ_hm over the two
// pairwise representations: the same clustering, cut and τ_hm filter,
// reading distances from wherever they are.
func hmFromMatrix(hosts []flow.IP, dist *distmatrix.Matrix, skipped int, pct float64, cfg Config) (HMResult, error) {
	return hmClusters(hosts, func() (*cluster.Dendrogram, error) {
		return cluster.Agglomerate(len(hosts), dist.At)
	}, dist.At, skipped, pct, cfg)
}

func hmFromGraph(hosts []flow.IP, g *distmatrix.Graph, skipped int, pct float64, cfg Config) (HMResult, error) {
	return hmClusters(hosts, func() (*cluster.Dendrogram, error) {
		return cluster.AgglomerateSparse(len(hosts), g.Row)
	}, g.At, skipped, pct, cfg)
}

// hmClusters runs agglomerative clustering over the clusterable hosts (in
// ascending address order), the top-fraction cut, and the τ_hm diameter
// filter. dist reads one pairwise distance, the sentinel for a pair above
// the cut.
func hmClusters(hosts []flow.IP, agglomerate func() (*cluster.Dendrogram, error), dist cluster.DistFunc, skipped int, pct float64, cfg Config) (HMResult, error) {
	reg := cfg.Metrics
	t := reg.StartStage("pipeline/hm/cluster")
	dendro, err := agglomerate()
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
		diam := clusterSpread(cfg, members, dist)
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
// timer structure that separates bot families); a population whose
// signatures all hold at most half that many positions gets no
// prefilter, since the exact merge-scan of any pair of them covers no
// more positions than the bound scans cells. The calibration
// sample bounds the exhaustive mini-matrix auto-calibration pays — it
// must stay large enough that the subsample resolves the population's
// cluster structure (a too-sparse subsample merges across true cluster
// boundaries and overestimates the cut, which costs speed, never
// correctness); the safety factor widens the calibrated cut so a
// subsample's underestimate of the full population's cluster spreads
// stays above the true requirement.
const (
	hmBoundCells        = 64
	hmCalibrationSample = 384
	hmCutSafety         = 2.0
)

// calibrateCut derives the cut of the sparse fill from a
// deterministic stride subsample of the (address-sorted) clusterable
// hosts: cluster the subsample exhaustively exactly as the full run
// would, take the widest surviving multi-member cluster's true diameter
// — the quantity the equivalence theorem needs the cut to dominate —
// and widen it by hmCutSafety. A subsample with no multi-member
// clusters falls back to its largest observed pairwise distance, which
// prunes nothing but can never change the result. below is the share of
// the subsample's pairs at or below the cut: an estimate of how much of
// the population's pair set the graph would hold.
func calibrateCut(sigs []*emd.Signature, cfg Config) (cut, below float64, err error) {
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
		return 0, 0, err
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
	cut = widest * hmCutSafety
	kept := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if mat.At(i, j) <= cut {
				kept++
			}
		}
	}
	return cut, float64(kept) / float64(m*(m-1)/2), nil
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
