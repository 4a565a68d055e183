package flow

import "time"

// Pane is one sealed accumulation interval's raw per-host state: the
// feature builders ShardedExtractor.TakePane detached at a pane
// boundary. A tumbling detection window is a single pane; a sliding
// window is the merge of its last Window/Slide panes. Panes keep the
// per-destination first-contact/last-start tables alive so MergePanes
// can stitch adjacent panes back together exactly (peer de-duplication
// and cross-pane interstitial gaps included).
type Pane struct {
	builders map[IP]*featureBuilder
	window   Window
}

// Window returns the interval the pane covers.
func (p *Pane) Window() Window { return p.window }

// Hosts returns the number of hosts the pane accumulated.
func (p *Pane) Hosts() int { return len(p.builders) }

// FeatureSet is the tumbling fast path: a single pane's features,
// contact sets included, are already exactly what batch extraction over
// the pane's records would produce. The features alias the pane's state
// — a pane that later windows will merge goes through MergePanes
// instead.
func (p *Pane) FeatureSet() *FeatureSet {
	return NewFeatureSet(featuresOfBuilders(p.builders), p.window).
		WithContacts(contactsOfBuilders(p.builders))
}

// MergePanes recomputes the features a batch extraction over the panes'
// combined records would produce, without the records. Counters sum;
// per-destination first contacts de-duplicate across panes (a peer
// re-contacted in a later pane is not counted again); the new-peer grace
// period runs from the host's earliest activity across the merged
// panes; and cross-pane interstitial gaps (last start to a destination
// in one pane → first start to it in a later pane) are restored, so the
// merged Interstitials hold exactly the multiset of consecutive
// same-destination gaps of the combined stream. Only the ordering of
// Interstitials may differ from a true batch extraction (pane-major
// instead of time-major); every downstream consumer is
// order-insensitive (θ_hm builds a histogram).
//
// Panes must be passed in time order. grace ≤ 0 means
// DefaultNewPeerGrace.
func MergePanes(grace time.Duration, panes ...*Pane) *FeatureSet {
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	nonEmpty := panes[:0:0]
	var window Window
	for _, p := range panes {
		if p == nil {
			continue
		}
		if window == (Window{}) {
			window = p.window
		} else {
			if p.window.From.Before(window.From) {
				window.From = p.window.From
			}
			if p.window.To.After(window.To) {
				window.To = p.window.To
			}
		}
		if len(p.builders) > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	if len(nonEmpty) == 1 {
		// Single populated pane: its features are already exact.
		fs := nonEmpty[0].FeatureSet()
		fs.window = window
		return fs
	}

	// Per merged host: the summed features and, per destination, the
	// earliest first contact and the latest start across the panes so far.
	merged := make(map[IP]*featureBuilder)
	for _, p := range nonEmpty {
		for ip, b := range p.builders {
			m, ok := merged[ip]
			if !ok {
				m = &featureBuilder{feats: &HostFeatures{Host: ip, FirstSeen: b.feats.FirstSeen}}
				m.dests.reserve(b.dests.n)
				merged[ip] = m
			}
			f := m.feats
			f.Flows += b.feats.Flows
			f.FailedFlows += b.feats.FailedFlows
			f.BytesUploaded += b.feats.BytesUploaded
			if b.feats.FirstSeen.Before(f.FirstSeen) {
				f.FirstSeen = b.feats.FirstSeen
			}
			// Pane-internal gaps survive as-is; the boundary gap between
			// the earlier panes' last start to a destination and this
			// pane's first contact with it is reconstructed here.
			f.Interstitials = append(f.Interstitials, b.feats.Interstitials...)
			for _, d := range b.dests.slots {
				if !d.used {
					continue
				}
				cur, fresh := m.dests.upsert(d.dst)
				if fresh {
					cur.first, cur.last = d.first, d.last
					continue
				}
				f.Interstitials = append(f.Interstitials, time.Duration(d.first-cur.last).Seconds())
				cur.first = min(d.first, cur.first)
				cur.last = max(d.last, cur.last)
			}
		}
	}

	out := make(map[IP]*HostFeatures, len(merged))
	contacts := make(map[IP][]IP, len(merged))
	for ip, m := range merged {
		f := m.feats
		f.Peers = m.dests.n
		f.NewPeers = 0
		graceEnd := f.FirstSeen.Add(grace).UnixNano()
		for _, d := range m.dests.slots {
			if d.used && d.first > graceEnd {
				f.NewPeers++
			}
		}
		out[ip] = f
		contacts[ip] = m.sortedDests()
	}
	return NewFeatureSet(out, window).WithContacts(contacts)
}
