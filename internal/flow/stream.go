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
// and once per record of an unmonitored one), and it names the host's
// slot in the shard's one accumulator, which a seal copies out and
// resets in place.
type shardExtractor struct {
	opts     FeatureOptions
	grace    time.Duration
	maxSkew  time.Duration
	pending  pendingLists
	acc      accumulator // the open pane
	frontier time.Time   // latest start time seen
	released time.Time   // latest start folded, or the last ReleaseBefore bound

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
		acc:     accumulator{dests: destTable{kept: true}},
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
		se.acc.observe(se.slot(i, c.start), &c, se.grace)
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
		se.fold(i, bound)
	}
	return nil
}

// watermark is the release bound the frontier sets: entries that start
// before it (Unix ns) are MaxSkew behind the frontier or further.
func (se *shardExtractor) watermark() int64 {
	return se.frontier.UnixNano() - int64(se.maxSkew) + 1
}

// fold observes queue i's entries that start before bound, oldest
// first.
func (se *shardExtractor) fold(i int32, bound int64) {
	q := &se.pending.queues[i]
	if !se.pending.ready(q, bound) {
		return
	}
	s := se.slot(i, se.pending.slab[q.head].start)
	var last int64
	for se.pending.ready(q, bound) {
		c := se.pending.pop(q)
		last = c.start
		se.acc.observe(s, c, se.grace)
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
		se.fold(i, bound)
		if q := &p.queues[i]; q.head == noEntry {
			q.listed = false
		} else {
			kept = append(kept, i)
		}
	}
	p.active = kept
}

// slot returns queue i's host's slot in the open pane. The pane's first
// fold opens it at first (Unix ns), restarting the host's grace period
// every pane.
func (se *shardExtractor) slot(i int32, first int64) int32 {
	q := &se.pending.queues[i]
	if q.slot == noEntry {
		q.slot = se.acc.open(q.host, first, i)
		se.hostsHW.SetMax(int64(len(se.acc.hosts)))
	}
	return q.slot
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

// take seals the open pane, with its destinations' spans when spans is
// set, and resets the extractor for the next one. Pending entries are
// untouched — call ReleaseBefore at the pane's end first so everything
// belonging to the pane has been folded. Every host of the pane gives
// its slot up; the accumulator keeps its arrays.
func (se *shardExtractor) take(spans bool) paneShard {
	for i := range se.acc.hosts {
		se.pending.queues[se.acc.hosts[i].queue].slot = noEntry
	}
	return se.acc.seal(spans)
}
