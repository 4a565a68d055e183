package flow

import (
	"errors"
	"time"

	"plotters/internal/metrics"
)

// shardExtractor is one shard of the ShardedExtractor: it computes the
// same per-host features as ExtractFeatures incrementally, one record at
// a time — the shape a deployment at a busy border needs, where the
// day's records never sit in memory at once.
//
// Feature semantics are defined over each host's start-time order, but
// flow monitors emit records at flow *end*, so a live feed arrives only
// approximately start-ordered. With a MaxSkew, a monitored host's record
// waits on the host's pending list (pendingLists) until the feed has
// advanced MaxSkew past its start, which tolerates exactly the
// reordering a flow monitor's expiry timers introduce. A host's ready
// records are folded on its next record, in a sweep of the hosts with
// pending records every time the watermark crosses a multiple of
// MaxSkew/4, and by ReleaseBefore and Drain. With zero skew, records
// must arrive strictly start-ordered.
//
// A host's queue outlives the pane. It spares a known host the
// monitored test (FeatureOptions.Hosts runs once per monitored host,
// and once per record of an unmonitored one), and it holds the host's
// builder, which a seal copies out and resets in place.
type shardExtractor struct {
	opts    FeatureOptions
	grace   time.Duration
	maxSkew time.Duration
	pending pendingLists
	// hosts counts the builders holding records of the open pane.
	hosts    int
	frontier time.Time // latest start time seen
	released time.Time // latest start folded, or the last ReleaseBefore bound

	// Instrumentation (nil-safe no-ops until ShardedExtractor.Metrics).
	dropCtr   *metrics.Counter
	pendingHW *metrics.Gauge
	hostsHW   *metrics.Gauge
}

// newShardExtractor creates an incremental extractor tolerating records
// up to maxSkew out of start order (0 = start-ordered input).
func newShardExtractor(opts FeatureOptions, maxSkew time.Duration) *shardExtractor {
	grace := opts.NewPeerGrace
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	return &shardExtractor{
		opts:    opts,
		grace:   grace,
		maxSkew: max(maxSkew, 0),
		pending: newPendingLists(),
	}
}

// errLate is what Add returns for every record behind the released
// watermark. One static value: a stepped exporter clock turns every
// record of a burst into a reject, and callers that only count drops
// (the live default) must not pay for a message nobody reads. Callers
// that surface the drop describe it themselves (engine.ErrLateRecord).
var errLate = errors.New("flow: record is more than MaxSkew behind the stream frontier")

// Add folds one record into the running features. Records may arrive up
// to MaxSkew out of start-time order; a record that starts before the
// latest start already folded, or before a ReleaseBefore bound, is
// rejected. Records from initiators opts.Hosts excludes are counted and
// dropped.
func (se *shardExtractor) Add(r *Record) error {
	if r.Start.Before(se.released) {
		se.dropCtr.Add(1)
		return errLate
	}
	before := se.watermark()
	if r.Start.After(se.frontier) {
		se.frontier = r.Start
	}
	if se.maxSkew == 0 {
		se.released = r.Start
	}
	// Queues exist only for monitored hosts, so a host that has one
	// passed the test already.
	i, known := se.pending.index[r.Src]
	if !known {
		if se.opts.Hosts != nil && !se.opts.Hosts(r.Src) {
			return nil
		}
		i = se.pending.add(r.Src)
	}
	c := compactOf(r)
	if se.maxSkew == 0 {
		se.builder(&se.pending.queues[i], c.start).observe(&c, se.grace)
		return nil
	}
	se.pendingHW.SetMax(int64(se.pending.n) + 1)
	se.pending.file(i, c)
	bound := se.watermark()
	// Sweeping on a grid of the watermark, not every so often since the
	// last sweep, makes when entries fold a function of the feed alone:
	// a store restored from a snapshot folds, and so rejects, exactly
	// what the store that took the snapshot would have.
	if every := max(int64(se.maxSkew)/4, 1); bound/every != before/every {
		se.sweep(bound)
	} else {
		se.fold(&se.pending.queues[i], bound)
	}
	return nil
}

// watermark is the release bound the frontier sets: entries that start
// before it (Unix ns) are MaxSkew behind the frontier or further.
func (se *shardExtractor) watermark() int64 {
	return se.frontier.UnixNano() - int64(se.maxSkew) + 1
}

// fold observes q's entries that start before bound, oldest first.
func (se *shardExtractor) fold(q *hostQueue, bound int64) {
	if !se.pending.ready(q, bound) {
		return
	}
	b := se.builder(q, se.pending.slab[q.head].start)
	var last int64
	for se.pending.ready(q, bound) {
		c := se.pending.pop(q)
		last = c.start
		b.observe(c, se.grace)
	}
	if last > se.released.UnixNano() {
		se.released = time.Unix(0, last).UTC()
	}
}

// sweep folds every host's entries that start before bound: it visits
// the active queues and drops each one it empties from the list.
func (se *shardExtractor) sweep(bound int64) {
	p := &se.pending
	kept := p.active[:0]
	for _, i := range p.active {
		q := &p.queues[i]
		se.fold(q, bound)
		if q.head == noEntry {
			q.listed = false
		} else {
			kept = append(kept, i)
		}
	}
	p.active = kept
}

// builder returns q's host's builder in the open pane. The pane's first
// fold starts it at first (Unix ns), restarting the host's grace period
// every pane, and sizes what it lacks for the host's last pane.
func (se *shardExtractor) builder(q *hostQueue, first int64) *featureBuilder {
	b := q.b
	if b == nil {
		b = &featureBuilder{feats: &HostFeatures{Host: q.host}}
		q.b = b
	} else if b.feats.Flows > 0 {
		return b
	}
	b.firstSeen, b.feats.FirstSeen = first, time.Unix(0, first).UTC()
	b.dests.reserve(int(q.dests))
	b.gapCap = int(q.gaps)
	se.hosts++
	se.hostsHW.SetMax(int64(se.hosts))
	return b
}

// Drain folds every pending entry (end of feed).
func (se *shardExtractor) Drain() {
	se.sweep(se.frontier.UnixNano() + 1)
}

// ReleaseBefore force-folds every pending entry with a start time
// strictly before t and then forbids records earlier than t: subsequent
// Add calls with start < t are rejected as skew drops. This is the
// window-sealing primitive — the engine calls it at a pane boundary once
// the stream frontier proves no conforming record below t can still
// arrive, so records at or past t stay pending for the next pane.
func (se *shardExtractor) ReleaseBefore(t time.Time) {
	se.sweep(t.UnixNano())
	if t.After(se.released) {
		se.released = t
	}
}

// sealed copies the open pane's builders, leaving them as they are.
func (se *shardExtractor) sealed() paneShard {
	bs := make([]*featureBuilder, 0, se.hosts)
	for i := range se.pending.queues {
		if b := se.pending.queues[i].b; b != nil && b.feats.Flows > 0 {
			bs = append(bs, b)
		}
	}
	return sealBuilders(bs)
}

// take seals the open pane and resets the extractor for the next one.
// Pending entries are untouched — call ReleaseBefore at the pane's end
// first so everything belonging to the pane has been folded. A host
// with records in the pane keeps its builder, reset, and its queue
// records the pane's counts; a host without gives its builder up.
func (se *shardExtractor) take() paneShard {
	s := se.sealed()
	for i := range se.pending.queues {
		if q := &se.pending.queues[i]; q.b != nil && q.b.feats.Flows == 0 {
			q.b = nil
		} else if q.b != nil {
			q.dests, q.gaps = uint32(q.b.dests.n), uint32(len(q.b.feats.Interstitials))
			q.b.reset()
		}
	}
	se.hosts = 0
	return s
}

// reset empties b for its host's next pane. It keeps the destination
// table unless the table is over twice the size reserve gives for the
// destinations it held — they fit a quarter of it — and the gap buffer
// unless it is over twice the gaps it held.
func (b *featureBuilder) reset() {
	if quarter := len(b.dests.slots) / 4; quarter >= destTableMin && b.dests.n*8 <= quarter*7 {
		b.dests = destTable{}
	} else {
		clear(b.dests.slots)
		b.dests.n = 0
	}
	gaps := b.feats.Interstitials
	if cap(gaps) > 2*len(gaps) {
		gaps = nil
	}
	*b.feats = HostFeatures{Host: b.feats.Host, Interstitials: gaps[:0]}
}

// observe folds one record into a host's builder: one probe of the
// destination table, whose slot is read and updated in place. Shared by
// the batch and streaming extractors so their semantics cannot drift.
func (b *featureBuilder) observe(c *compactRecord, grace time.Duration) {
	f := b.feats
	f.Flows++
	if c.state == StateFailed {
		f.FailedFlows++
	}
	f.BytesUploaded += c.srcBytes
	d, fresh := b.dests.upsert(c.dst)
	if fresh {
		d.first = c.start
		f.Peers++
		if c.start-b.firstSeen > int64(grace) {
			f.NewPeers++
		}
	} else {
		if f.Interstitials == nil && b.gapCap > 0 {
			f.Interstitials = make([]float64, 0, b.gapCap)
		}
		f.Interstitials = append(f.Interstitials, time.Duration(c.start-d.last).Seconds())
	}
	d.last = c.start
}
