package flow

import "time"

// Pane is one sealed accumulation interval's raw per-host state. A
// tumbling detection window is a single pane; a sliding window is the
// merge of its last Window/Slide panes. Panes keep every host's
// per-destination first contacts and latest starts so MergePanes can
// stitch adjacent panes back together exactly (peer de-duplication and
// cross-pane interstitial gaps included). It shares nothing with the
// store, whose accumulator goes on to the next pane.
type Pane struct {
	shards []paneShard
	window Window
}

// paneShard is one store shard's hosts in a pane, in exact-size arrays:
// their features, and one address-sorted run per host of its
// destinations with their spans, host i's run the feats[i].Peers entries
// after host i−1's. The hosts' Interstitials share one array (nil for a
// host with no gap, as batch extraction has it). Only a store's pane
// has spans: a batch extraction or a merge is never merged again.
type paneShard struct {
	feats []HostFeatures
	dsts  []IP
	spans []span
}

// span is a destination's first contact and latest start, Unix ns.
type span struct{ first, last int64 }

// Window returns the interval the pane covers.
func (p *Pane) Window() Window { return p.window }

// Hosts returns the number of hosts the pane accumulated.
func (p *Pane) Hosts() (n int) {
	for _, s := range p.shards {
		n += len(s.feats)
	}
	return n
}

// each calls fn for every host of the pane with its destination run,
// which has no room to grow: appending to it never reaches a neighbour.
// spans is nil when the pane has none.
func (p *Pane) each(fn func(f *HostFeatures, dsts []IP, spans []span)) {
	for _, s := range p.shards {
		at := 0
		for i := range s.feats {
			end := at + s.feats[i].Peers
			var spans []span
			if s.spans != nil {
				spans = s.spans[at:end:end]
			}
			fn(&s.feats[i], s.dsts[at:end:end], spans)
			at = end
		}
	}
}

// FeatureSet is the tumbling fast path: a single pane's features,
// contact sets included, are already exactly what batch extraction over
// the pane's records would produce. The features and contacts alias the
// pane's arrays — a pane that later windows will merge goes through
// MergePanes instead.
func (p *Pane) FeatureSet() *FeatureSet {
	n := p.Hosts()
	feats := make(map[IP]*HostFeatures, n)
	contacts := make(map[IP][]IP, n)
	p.each(func(f *HostFeatures, dsts []IP, _ []span) {
		feats[f.Host], contacts[f.Host] = f, dsts
	})
	return NewFeatureSet(feats, p.window).WithContacts(contacts)
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
		if p.Hosts() > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	if len(nonEmpty) == 1 {
		// Single populated pane: its features are already exact.
		fs := nonEmpty[0].FeatureSet()
		fs.window = window
		return fs
	}

	// One accumulator folds the panes: per merged host, the summed
	// features and, per destination, the earliest first contact and the
	// latest start across the panes so far.
	var acc accumulator
	slots := make(map[IP]int32)
	for _, p := range nonEmpty {
		p.each(func(pf *HostFeatures, dsts []IP, spans []span) {
			s, ok := slots[pf.Host]
			if !ok {
				s = acc.open(pf.Host, pf.FirstSeen.UnixNano(), noEntry)
				slots[pf.Host] = s
			}
			h := &acc.hosts[s]
			f := &h.feats
			f.Flows += pf.Flows
			f.FailedFlows += pf.FailedFlows
			f.BytesUploaded += pf.BytesUploaded
			if pf.FirstSeen.Before(f.FirstSeen) {
				f.FirstSeen = pf.FirstSeen
			}
			// Pane-internal gaps survive as-is; the boundary gap between
			// the earlier panes' last start to a destination and this
			// pane's first contact with it is reconstructed here.
			for _, g := range pf.Interstitials {
				acc.addGap(h, g)
			}
			for j, dst := range dsts {
				cur, fresh := acc.dests.upsert(destKey(s, dst))
				if fresh {
					f.Peers++
					cur.first, cur.last = spans[j].first, spans[j].last
					continue
				}
				acc.addGap(h, time.Duration(spans[j].first-cur.last).Seconds())
				cur.first, cur.last = min(spans[j].first, cur.first), max(spans[j].last, cur.last)
			}
		})
	}

	// New peers are counted once every host's grace period is known.
	graceEnd := make([]int64, len(acc.hosts))
	for i := range acc.hosts {
		graceEnd[i] = acc.hosts[i].feats.FirstSeen.Add(grace).UnixNano()
	}
	for i := range acc.dests.slots {
		if d := &acc.dests.slots[i]; d.key != 0 && d.first > graceEnd[d.slot()] {
			acc.hosts[d.slot()].feats.NewPeers++
		}
	}
	fs := (&Pane{shards: []paneShard{acc.seal(false)}}).FeatureSet()
	fs.window = window
	return fs
}
