package flow

import (
	"cmp"
	"slices"
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
	// FailedFlows counts initiated flows that failed.
	FailedFlows int

	// BytesUploaded totals bytes the host sent as initiator.
	BytesUploaded uint64

	// Peers counts distinct destination IPs contacted.
	Peers int
	// NewPeers counts destination IPs first contacted after the host's
	// first NewPeerGrace of activity.
	NewPeers int

	// FirstSeen is the start of the host's earliest initiated flow: the
	// anchor of the new-peer grace period.
	FirstSeen time.Time

	// Interstitials holds, pooled across all destinations, the gaps (in
	// seconds) between consecutive flow starts from this host to the same
	// destination IP — the θ_hm sample v(s).
	Interstitials []float64
}

// SuccessfulFlows returns how many initiated flows established: every
// flow that did not fail.
func (h *HostFeatures) SuccessfulFlows() int { return h.Flows - h.FailedFlows }

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

// ExtractFeatures computes per-host features from the record set.
// Records need not be pre-sorted; they are processed in start-time order.
// The input slice is not modified.
func ExtractFeatures(records []Record, opts FeatureOptions) map[IP]*HostFeatures {
	p := extract(records, opts)
	out := make(map[IP]*HostFeatures, p.Hosts())
	p.each(func(f *HostFeatures, _ []IP, _ []span) { out[f.Host] = f })
	return out
}

// extract runs the batch extraction: every record folded, in start
// order, into one accumulator, sealed as a one-shard pane without spans
// (nothing merges a batch extraction).
func extract(records []Record, opts FeatureOptions) *Pane {
	grace := opts.NewPeerGrace
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	// Sorting (start, index) keys, not the records, is the stable sort by
	// start by construction, and leaves the records where they are.
	type startKey struct {
		start int64
		i     int
	}
	keys := make([]startKey, len(records))
	for i := range records {
		keys[i] = startKey{records[i].Start.UnixNano(), i}
	}
	slices.SortFunc(keys, func(a, b startKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})

	var acc accumulator
	slots := make(map[IP]int32)
	for _, k := range keys {
		r := &records[k.i]
		if opts.Hosts != nil && !opts.Hosts(r.Src) {
			continue
		}
		c := compactOf(r)
		s, ok := slots[r.Src]
		if !ok {
			s = acc.open(r.Src, c.start, noEntry)
			slots[r.Src] = s
		}
		acc.observe(s, &c, grace)
	}
	return &Pane{shards: []paneShard{acc.seal(false)}}
}

// SortedHosts returns a per-host map's keys in ascending address order.
func SortedHosts[V any](m map[IP]V) []IP {
	hosts := make([]IP, 0, len(m))
	for ip := range m {
		hosts = append(hosts, ip)
	}
	slices.Sort(hosts)
	return hosts
}
