package flow

import (
	"slices"
	"time"
)

// Pane is one sealed accumulation interval's raw per-host state. A
// tumbling detection window is a single pane; a sliding window is the
// merge of its last Window/Slide panes. Panes keep every host's
// per-destination first contacts and latest starts so MergePanes can
// stitch adjacent panes back together exactly (peer de-duplication and
// cross-pane interstitial gaps included). It shares nothing with the
// store, whose builders go on to the next pane.
type Pane struct {
	shards []paneShard
	window Window
}

// paneShard is one store shard's hosts in a pane, in exact-size arrays:
// their features, and one address-sorted run per host of its
// destinations with their spans, host i's run the feats[i].Peers entries
// after host i−1's. The hosts' Interstitials share one array (nil for a
// host with no gap, as batch extraction has it).
type paneShard struct {
	feats []HostFeatures
	dsts  []IP
	spans []span
}

// span is a destination's first contact and latest start, Unix ns.
type span struct{ first, last int64 }

// sealBuilders copies builders into a paneShard.
func sealBuilders(bs []*featureBuilder) paneShard {
	dests, gaps := 0, 0
	for _, b := range bs {
		dests, gaps = dests+b.dests.n, gaps+len(b.feats.Interstitials)
	}
	s := paneShard{make([]HostFeatures, 0, len(bs)), make([]IP, 0, dests), make([]span, 0, dests)}
	g := make([]float64, 0, gaps)
	for _, b := range bs {
		s.feats = append(s.feats, *b.feats)
		s.feats[len(s.feats)-1].Interstitials = nil
		if at := len(g); len(b.feats.Interstitials) > 0 {
			g = append(g, b.feats.Interstitials...)
			s.feats[len(s.feats)-1].Interstitials = g[at:len(g):len(g)]
		}
		at := len(s.dsts)
		for i := range b.dests.slots {
			if d := &b.dests.slots[i]; d.used {
				s.dsts = append(s.dsts, d.dst)
			}
		}
		slices.Sort(s.dsts[at:])
		for _, dst := range s.dsts[at:] {
			d, _ := b.dests.upsert(dst) // present: a lookup
			s.spans = append(s.spans, span{d.first, d.last})
		}
	}
	return s
}

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
func (p *Pane) each(fn func(f *HostFeatures, dsts []IP, spans []span)) {
	for _, s := range p.shards {
		at := 0
		for i := range s.feats {
			end := at + s.feats[i].Peers
			fn(&s.feats[i], s.dsts[at:end:end], s.spans[at:end:end])
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

	// Per merged host: the summed features and, per destination, the
	// earliest first contact and the latest start across the panes so far.
	merged := make(map[IP]*featureBuilder)
	for _, p := range nonEmpty {
		p.each(func(pf *HostFeatures, dsts []IP, spans []span) {
			m, ok := merged[pf.Host]
			if !ok {
				m = &featureBuilder{feats: &HostFeatures{Host: pf.Host, FirstSeen: pf.FirstSeen}}
				m.dests.reserve(len(dsts))
				merged[pf.Host] = m
			}
			f := m.feats
			f.Flows += pf.Flows
			f.FailedFlows += pf.FailedFlows
			f.BytesUploaded += pf.BytesUploaded
			if pf.FirstSeen.Before(f.FirstSeen) {
				f.FirstSeen = pf.FirstSeen
			}
			// Pane-internal gaps survive as-is; the boundary gap between
			// the earlier panes' last start to a destination and this
			// pane's first contact with it is reconstructed here.
			f.Interstitials = append(f.Interstitials, pf.Interstitials...)
			for j, dst := range dsts {
				cur, fresh := m.dests.upsert(dst)
				if fresh {
					cur.first, cur.last = spans[j].first, spans[j].last
					continue
				}
				f.Interstitials = append(f.Interstitials, time.Duration(spans[j].first-cur.last).Seconds())
				cur.first, cur.last = min(spans[j].first, cur.first), max(spans[j].last, cur.last)
			}
		})
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
