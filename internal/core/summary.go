package core

import (
	"cmp"
	"fmt"
	"slices"

	"plotters/internal/flow"
)

// This file is the shard side of the FindPlotters pipeline, and the
// whole of what makes it distributable. The cut follows the paper's own
// structure: every per-host quantity — the reduction/θ_vol/θ_churn
// feature vector and the θ_hm interstitial-time histogram sketch —
// depends on one host's flows alone, and host-hash sharding
// (flow.ShardOf) guarantees one host's flows all land on one shard.
// Only the population-relative decisions need a global view: the
// percentile thresholds, the pairwise EMD clustering of θ_hm, and the
// community graph.
//
//	stage                        where    needs
//	per-host feature vector      shard    one host's flows
//	θ_hm histogram sketch        shard    one host's interstitials
//	contact set                  shard    one host's destinations
//	reduction median             global   every host's failed rate
//	τ_vol / τ_churn percentiles  global   every candidate's features
//	θ_hm EMD matrix + clusters   global   every sketch
//	community graph              global   every contact set
//
// So a shard runs LocalPass over its hosts and ships a compact
// ShardSummary, and there is no second, "global" pipeline: a merged
// summary is a feature source that carries sketches
// (ShardSummary.FeatureSet), and every detector — FindPlotters included
// — runs over it exactly as over a single process's sealed window. θ_hm
// takes a host's signature from the source when it ships them and builds
// it from raw samples otherwise, with the same code (hmSketch) on either
// side of the wire, so the outcome is bit-identical to a single process
// over the union — the property the distributed golden test pins.
//
// Serialization of ShardSummary lives in internal/dist, which frames it
// with the checkpoint-derived wire codec and a format version.

// HostSummary is one host's complete shard-local reduction: the scalar
// feature vector every percentile test thresholds, the θ_hm histogram
// sketch (present only when the host has enough interstitial samples to
// cluster — the shard-local candidate filter that keeps the summary
// compact), and the contacted-destination set the community detector
// reads.
type HostSummary struct {
	// HostFeatures is the host's feature vector with Interstitials nil:
	// only the samples' count and sketch travel.
	flow.HostFeatures

	// InterstitialCount is how many interstitial-time samples the host
	// accumulated. Hosts below Config.MinInterstitialSamples carry the
	// count but no sketch: they can never pass θ_hm, and the count keeps
	// the coordinator's Skipped accounting identical to single-process.
	InterstitialCount int

	// SketchPositions/SketchWeights are the host's Freedman–Diaconis
	// histogram signature (bin centers and masses, non-empty bins only)
	// at the configured time scale — everything θ_hm's EMD needs, at a
	// fraction of the raw samples' size. Nil when InterstitialCount <
	// MinInterstitialSamples.
	SketchPositions []float64
	SketchWeights   []float64

	// Contacts is the host's contacted-destination set, ascending. Nil
	// when the shard's feature source tracks no contacts.
	Contacts []flow.IP
}

// ShardSummary is one shard's complete contribution to one detection
// window: the shard-local phase's output and the global phase's entire
// input. Summaries of disjoint shards merge (MergeSummaries) into
// exactly the summary a single process would have produced, which is
// what makes the distributed pipeline bit-identical.
type ShardSummary struct {
	// Shard and Shards identify the host-hash slice this summary covers:
	// every host h in it satisfies flow.ShardOf(h, Shards) == Shard.
	// A merged summary spanning several shards keeps Shards and sets
	// Shard to -1.
	Shard  int
	Shards int
	// Window is the detection window the features cover.
	Window flow.Window
	// Partial marks a summary sealed by an end-of-feed flush before the
	// window's nominal end — its verdict contribution is provisional.
	Partial bool
	// HasContacts records whether the shard's source tracked contacted
	// destinations (the community detector's input).
	HasContacts bool
	// Hosts is ascending by address.
	Hosts []HostSummary
}

// LocalPass runs the shard-local phase over one sealed window's feature
// source: per-host feature reduction to the scalar vector, the θ_hm
// sketch for hosts with enough samples, and contact-list capture, one
// host at a time on Config.Parallelism workers. The summary and the
// error (the lowest-addressed failing host's) are the same at every
// setting.
// shard/shards name the host-hash slice the source is expected to hold
// (0/1 for the whole population); a host that hashes elsewhere is a
// routing bug and a hard error, because a silently misplaced host would
// shift every global percentile.
func LocalPass(src flow.FeatureSource, cfg Config, shard, shards int) (*ShardSummary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("core: local pass: shards = %d must be >= 1", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("core: local pass: shard %d outside [0,%d)", shard, shards)
	}
	if src == nil {
		return nil, fmt.Errorf("core: local pass: nil feature source")
	}
	reg := cfg.Metrics
	total := reg.StartStage("localpass")
	defer total.Stop()

	feats, contacts := src.Features(), src.Contacts()
	hosts := flow.SortedHosts(feats)
	sum := &ShardSummary{
		Shard:       shard,
		Shards:      shards,
		Window:      src.Window(),
		HasContacts: contacts != nil,
		Hosts:       make([]HostSummary, len(hosts)),
	}
	// Every host's contacts are copied into one exact-size array, each
	// host's run after the last one's with no room to grow into the next.
	at := make([]int, len(hosts)+1)
	for i, h := range hosts {
		at[i+1] = at[i] + len(contacts[h])
	}
	var ips []flow.IP
	if at[len(hosts)] > 0 {
		ips = make([]flow.IP, at[len(hosts)])
	}
	t := total.Child("sketches")
	err := eachHost(len(hosts), cfg.Parallelism, func(buf *sketchBuf, i int) error {
		h := hosts[i]
		if got := flow.ShardOf(h, shards); got != shard {
			return fmt.Errorf("core: local pass: host %v hashes to shard %d but this source claims shard %d/%d", h, got, shard, shards)
		}
		hs := &sum.Hosts[i]
		hs.HostFeatures = *feats[h]
		hs.InterstitialCount = len(hs.Interstitials)
		if hs.InterstitialCount >= cfg.MinInterstitialSamples {
			sk, err := hmSketch(hs.Interstitials, cfg, buf)
			if err != nil {
				return fmt.Errorf("core: local pass: histogram for %v: %w", h, err)
			}
			hs.SketchPositions, hs.SketchWeights = sk.Positions, sk.Weights
		}
		hs.Interstitials = nil
		if cset := contacts[h]; len(cset) > 0 {
			hs.Contacts = ips[at[i]:at[i+1]:at[i+1]]
			copy(hs.Contacts, cset)
			slices.Sort(hs.Contacts)
		}
		return nil
	})
	t.Stop()
	if err != nil {
		return nil, err
	}
	reg.Gauge("localpass/hosts").Set(int64(len(sum.Hosts)))
	return sum, nil
}

// MergeSummaries combines disjoint shard summaries of the same window
// into the single-process summary: the host lists interleave by
// address, and every per-host field passes through untouched. Summaries
// must agree on the shard count and window and must not share hosts —
// any overlap means two shards claimed the same host, which would
// double-count it in every percentile.
func MergeSummaries(sums []*ShardSummary) (*ShardSummary, error) {
	if len(sums) == 0 {
		return nil, fmt.Errorf("core: merge: no shard summaries")
	}
	first := sums[0]
	total := 0
	for _, s := range sums {
		if s == nil {
			return nil, fmt.Errorf("core: merge: nil shard summary")
		}
		if s.Shards != first.Shards {
			return nil, fmt.Errorf("core: merge: summary of shard %d/%d cannot merge with shard %d/%d — the shard hash disagrees",
				s.Shard, s.Shards, first.Shard, first.Shards)
		}
		if !s.Window.From.Equal(first.Window.From) || !s.Window.To.Equal(first.Window.To) {
			return nil, fmt.Errorf("core: merge: summary of shard %d covers window [%v, %v) but shard %d covers [%v, %v)",
				s.Shard, s.Window.From, s.Window.To, first.Shard, first.Window.From, first.Window.To)
		}
		total += len(s.Hosts)
	}
	out := &ShardSummary{
		Shard:  first.Shard,
		Shards: first.Shards,
		Window: first.Window,
		Hosts:  make([]HostSummary, 0, total),
	}
	if len(sums) > 1 {
		out.Shard = -1
	}
	seen := make(map[int]bool, len(sums))
	for _, s := range sums {
		if s.Shard >= 0 {
			if seen[s.Shard] {
				return nil, fmt.Errorf("core: merge: two summaries for shard %d", s.Shard)
			}
			seen[s.Shard] = true
		}
		out.Partial = out.Partial || s.Partial
		out.HasContacts = out.HasContacts || s.HasContacts
		out.Hosts = append(out.Hosts, s.Hosts...)
	}
	slices.SortFunc(out.Hosts, func(a, b HostSummary) int { return cmp.Compare(a.Host, b.Host) })
	for i := 1; i < len(out.Hosts); i++ {
		if out.Hosts[i].Host == out.Hosts[i-1].Host {
			return nil, fmt.Errorf("core: merge: host %v appears in more than one shard summary — per-host state must never split across shards", out.Hosts[i].Host)
		}
	}
	return out, nil
}

// FeatureSet presents the summary as the currency every detector
// consumes: the hosts' feature vectors (pointing into s.Hosts, not
// copied), their θ_hm sketches, and their contact sets when the shards
// tracked them.
func (s *ShardSummary) FeatureSet() *flow.FeatureSet {
	feats := make(map[flow.IP]*flow.HostFeatures, len(s.Hosts))
	sketches := make(map[flow.IP]flow.Sketch)
	var contacts map[flow.IP][]flow.IP
	if s.HasContacts {
		contacts = make(map[flow.IP][]flow.IP, len(s.Hosts))
	}
	for i := range s.Hosts {
		h := &s.Hosts[i]
		feats[h.Host] = &h.HostFeatures
		if h.SketchPositions != nil {
			sketches[h.Host] = flow.Sketch{Positions: h.SketchPositions, Weights: h.SketchWeights}
		}
		if s.HasContacts && len(h.Contacts) > 0 {
			contacts[h.Host] = h.Contacts
		}
	}
	return flow.NewFeatureSet(feats, s.Window).WithSketches(sketches).WithContacts(contacts)
}

// GlobalPass is FindPlotters over one window's shard summaries: merge
// them and run the pipeline over the merged summary's feature set. The
// result is bit-identical to FindPlotters over the same population —
// same thresholds, survivor sets, clusters, and suspects — because every
// per-host input was computed by the same code on the shard.
func GlobalPass(sums []*ShardSummary, cfg Config) (*Result, error) {
	merged, err := MergeSummaries(sums)
	if err != nil {
		return nil, err
	}
	a, err := NewAnalysisFromSource(merged.FeatureSet(), cfg)
	if err != nil {
		return nil, err
	}
	return a.FindPlotters()
}
