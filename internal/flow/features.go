package flow

import (
	"sort"
	"time"
)

// DefaultNewPeerGrace is the warm-up period after a host's first activity
// of the day during which destination contacts are not counted as "new":
// the paper measures churn as the fraction of IP addresses first
// contacted *after the host's first hour of activity* on that day.
const DefaultNewPeerGrace = time.Hour

// FeatureOptions configures per-host feature extraction.
type FeatureOptions struct {
	// Hosts restricts extraction to initiators for which the predicate is
	// true (typically "is an internal address"). Nil means all initiators.
	Hosts func(IP) bool
	// NewPeerGrace overrides DefaultNewPeerGrace when positive.
	NewPeerGrace time.Duration
}

// HostFeatures aggregates one host's behavioral features over a detection
// window. All features consider only flows the host initiated, following
// the Argus convention that the record source is the initiator.
type HostFeatures struct {
	Host IP

	// Flows counts initiated flows.
	Flows int
	// SuccessfulFlows counts initiated flows that established.
	SuccessfulFlows int
	// FailedFlows counts initiated flows that failed.
	FailedFlows int

	// BytesUploaded totals bytes the host sent as initiator.
	BytesUploaded uint64

	// Peers counts distinct destination IPs contacted.
	Peers int
	// NewPeers counts destination IPs first contacted after the host's
	// first NewPeerGrace of activity.
	NewPeers int

	// FirstSeen and LastSeen bound the host's initiated activity.
	FirstSeen time.Time
	LastSeen  time.Time

	// Interstitials holds, pooled across all destinations, the gaps (in
	// seconds) between consecutive flow starts from this host to the same
	// destination IP — the θ_hm sample v(s).
	Interstitials []float64
}

// AvgBytesPerFlow returns the paper's volume feature: mean bytes uploaded
// per initiated flow.
func (h *HostFeatures) AvgBytesPerFlow() float64 {
	if h.Flows == 0 {
		return 0
	}
	return float64(h.BytesUploaded) / float64(h.Flows)
}

// FailedRate returns the fraction of initiated flows that failed.
func (h *HostFeatures) FailedRate() float64 {
	if h.Flows == 0 {
		return 0
	}
	return float64(h.FailedFlows) / float64(h.Flows)
}

// NewPeerFraction returns the churn feature: the fraction of contacted
// destination IPs that were new (first contacted after the grace period).
func (h *HostFeatures) NewPeerFraction() float64 {
	if h.Peers == 0 {
		return 0
	}
	return float64(h.NewPeers) / float64(h.Peers)
}

// featureBuilder accumulates one host's state during extraction: the
// features plus one table entry per contacted destination.
type featureBuilder struct {
	feats *HostFeatures
	dests map[IP]destTimes
}

// destTimes is what a host remembers about one destination: its first
// contact (peer de-duplication, the churn grace test) and its latest
// flow start (the next interstitial gap), as Unix nanoseconds. Both live
// in one entry because every record reads and writes both for the same
// destination — one lookup and one store per record.
type destTimes struct {
	first, last int64
}

func newFeatureBuilder(host IP, firstSeen time.Time) *featureBuilder {
	return &featureBuilder{
		feats: &HostFeatures{Host: host, FirstSeen: firstSeen},
		dests: make(map[IP]destTimes),
	}
}

// ExtractFeatures computes per-host features from the record set.
// Records need not be pre-sorted; they are processed in start-time order.
// The input slice is not modified.
func ExtractFeatures(records []Record, opts FeatureOptions) map[IP]*HostFeatures {
	return featuresOfBuilders(extractBuilders(records, opts))
}

// extractBuilders runs the batch extraction but keeps the per-host
// builders alive, so callers can also derive the per-destination tables
// (contact sets) instead of just the folded features.
func extractBuilders(records []Record, opts FeatureOptions) map[IP]*featureBuilder {
	grace := opts.NewPeerGrace
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	ordered := make([]Record, len(records))
	copy(ordered, records)
	SortByStart(ordered)

	builders := make(map[IP]*featureBuilder)
	for i := range ordered {
		r := &ordered[i]
		if opts.Hosts != nil && !opts.Hosts(r.Src) {
			continue
		}
		b, ok := builders[r.Src]
		if !ok {
			b = newFeatureBuilder(r.Src, r.Start)
			builders[r.Src] = b
		}
		b.observe(r, grace)
	}
	return builders
}

// featuresOfBuilders strips a builder map down to the features.
func featuresOfBuilders(builders map[IP]*featureBuilder) map[IP]*HostFeatures {
	out := make(map[IP]*HostFeatures, len(builders))
	for ip, b := range builders {
		out[ip] = b.feats
	}
	return out
}

// contactsOfBuilders derives each host's contacted-destination set (the
// keys of its per-destination table) in ascending address order — the
// flow-graph view of the accumulated state that the community detector
// consumes.
func contactsOfBuilders(builders map[IP]*featureBuilder) map[IP][]IP {
	out := make(map[IP][]IP, len(builders))
	for ip, b := range builders {
		out[ip] = b.sortedDests()
	}
	return out
}

// sortedDests returns the host's contacted destinations in ascending
// address order.
func (b *featureBuilder) sortedDests() []IP {
	dsts := make([]IP, 0, len(b.dests))
	for dst := range b.dests {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	return dsts
}

// SortedHosts returns the feature map's keys in ascending address order.
func SortedHosts(feats map[IP]*HostFeatures) []IP {
	hosts := make([]IP, 0, len(feats))
	for ip := range feats {
		hosts = append(hosts, ip)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	return hosts
}
