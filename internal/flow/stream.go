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
// Feature semantics are defined over start-time order, but flow monitors
// emit records at flow *end*, so a live feed arrives only approximately
// start-ordered. A MaxSkew buffers records in a small start-ordered
// reorder buffer: a record is processed once the feed has advanced
// MaxSkew past its start time, which tolerates exactly the reordering a
// flow monitor's expiry timers introduce. With zero skew, records must
// arrive strictly start-ordered.
type shardExtractor struct {
	opts     FeatureOptions
	grace    time.Duration
	maxSkew  time.Duration
	builders map[IP]*featureBuilder
	anchors  map[IP]time.Time // host -> carried first-seen (nil = off)
	pending  reorderBuffer
	first    time.Time // earliest start time seen
	frontier time.Time // latest start time seen
	released time.Time // start time up to which records were processed
	count    int
	seq      uint64

	// Instrumentation (nil-safe no-ops until ShardedExtractor.Metrics).
	recCtr    *metrics.Counter
	dropCtr   *metrics.Counter
	pendingHW *metrics.Gauge
}

// newShardExtractor creates an incremental extractor tolerating records
// up to maxSkew out of start order (0 = start-ordered input).
func newShardExtractor(opts FeatureOptions, maxSkew time.Duration) *shardExtractor {
	grace := opts.NewPeerGrace
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	if maxSkew < 0 {
		maxSkew = 0
	}
	se := &shardExtractor{
		opts:     opts,
		grace:    grace,
		maxSkew:  maxSkew,
		builders: make(map[IP]*featureBuilder),
	}
	se.pending.init(maxSkew)
	return se
}

// errLate is what Add returns for every record behind the released
// watermark. One static value: a stepped exporter clock turns every
// record of a burst into a reject, and callers that only count drops
// (the live default) must not pay for a message nobody reads. Callers
// that surface the drop describe it themselves (engine.ErrLateRecord).
var errLate = errors.New("flow: record is more than MaxSkew behind the stream frontier")

// Add folds one record into the running features. Records may arrive up
// to MaxSkew out of start-time order; older records are rejected.
func (se *shardExtractor) Add(r *Record) error {
	if r.Start.Before(se.released) {
		se.dropCtr.Add(1)
		return errLate
	}
	se.count++
	se.recCtr.Add(1)
	if se.count == 1 || r.Start.Before(se.first) {
		se.first = r.Start
	}
	advanced := r.Start.After(se.frontier)
	if advanced {
		se.frontier = r.Start
	}
	if se.maxSkew == 0 {
		se.released = r.Start
		c := compactOf(r)
		se.process(&c)
		return nil
	}
	se.seq++
	se.pendingHW.SetMax(int64(se.pending.len()) + 1)
	bound := se.frontier.UnixNano() - int64(se.maxSkew) + 1
	if advanced {
		// r is at the new frontier, past bound, so releasing first is the
		// same order — and keeps what is buffered within MaxSkew, the
		// span the reorder buffer's buckets are sized for.
		se.release(bound)
		se.pending.push(r, se.seq)
	} else {
		se.pending.push(r, se.seq)
		se.release(bound)
	}
	return nil
}

// release processes buffered records with start times (Unix ns) strictly
// below bound, earliest first. A watermark that is itself releasable
// (frontier − MaxSkew, the frontier at end of feed) passes watermark+1.
func (se *shardExtractor) release(bound int64) {
	c := se.pending.peek(bound)
	if c == nil {
		return
	}
	var last int64
	for ; c != nil; c = se.pending.peek(bound) {
		last = c.start
		se.process(c)
		se.pending.pop()
	}
	se.released = time.Unix(0, last).UTC()
}

// Drain processes every buffered record (end of feed).
func (se *shardExtractor) Drain() {
	se.release(se.frontier.UnixNano() + 1)
}

// ReleaseBefore force-processes every buffered record with a start time
// strictly before t and then forbids records earlier than t: subsequent
// Add calls with start < t are rejected as skew drops. This is the
// window-sealing primitive — the engine calls it at a pane boundary once
// the stream frontier proves no conforming record below t can still
// arrive, so records at or past t stay buffered for the next pane.
func (se *shardExtractor) ReleaseBefore(t time.Time) {
	se.release(t.UnixNano())
	if t.After(se.released) {
		se.released = t
	}
}

// take detaches the accumulated builders and resets the extractor for
// the next pane. Buffered (pending) records are untouched — call
// ReleaseBefore at the pane's end first so everything belonging to the
// pane has been processed. When first-seen carrying is enabled, each
// detached host's earliest activity is remembered and re-anchors the
// host's grace period in later panes.
func (se *shardExtractor) take() map[IP]*featureBuilder {
	builders := se.builders
	se.builders = make(map[IP]*featureBuilder)
	if se.anchors != nil {
		for ip, b := range builders {
			if cur, ok := se.anchors[ip]; !ok || b.feats.FirstSeen.Before(cur) {
				se.anchors[ip] = b.feats.FirstSeen
			}
		}
	}
	return builders
}

func (se *shardExtractor) process(c *compactRecord) {
	if se.opts.Hosts != nil && !se.opts.Hosts(c.src) {
		return
	}
	b, ok := se.builders[c.src]
	if !ok {
		first := c.start
		if anchor, ok := se.anchors[c.src]; ok {
			first = min(first, anchor.UnixNano())
		}
		b = newFeatureBuilder(c.src, first)
		se.builders[c.src] = b
	}
	b.observe(c, se.grace)
}

// observe folds one record into a host's builder: one probe of the
// destination table, whose slot is read and updated in place. Shared by
// the batch and streaming extractors so their semantics cannot drift.
func (b *featureBuilder) observe(c *compactRecord, grace time.Duration) {
	f := b.feats
	f.Flows++
	if c.state == StateFailed {
		f.FailedFlows++
	} else {
		f.SuccessfulFlows++
	}
	f.BytesUploaded += c.srcBytes
	if c.start > b.lastSeen {
		b.lastSeen = c.start
		f.LastSeen = time.Unix(0, c.start).UTC()
	}
	d, fresh := b.dests.upsert(c.dst)
	if fresh {
		d.first = c.start
		f.Peers++
		if c.start-b.firstSeen > int64(grace) {
			f.NewPeers++
		}
	} else {
		f.Interstitials = append(f.Interstitials, time.Duration(c.start-d.last).Seconds())
	}
	d.last = c.start
}
