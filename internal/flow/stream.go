package flow

import (
	"errors"
	"time"

	"plotters/internal/metrics"
)

// StreamExtractor computes the same per-host features as ExtractFeatures
// incrementally, one record at a time — the shape a deployment at a busy
// border needs, where the day's records never sit in memory at once.
//
// Feature semantics are defined over start-time order, but flow monitors
// emit records at flow *end*, so a live feed arrives only approximately
// start-ordered. A MaxSkew (NewStreamExtractorSkew) buffers records in a
// small start-ordered reorder buffer: a record is processed once the
// feed has advanced MaxSkew past its start time, which tolerates exactly
// the reordering a flow monitor's expiry timers introduce. With zero
// skew, records must arrive strictly start-ordered.
type StreamExtractor struct {
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

	// Instrumentation (nil-safe no-ops until Metrics is called).
	recCtr    *metrics.Counter
	dropCtr   *metrics.Counter
	pendingHW *metrics.Gauge
	hostCtr   *metrics.Gauge
}

// NewStreamExtractorSkew creates an incremental extractor tolerating
// records up to maxSkew out of start order (0 = start-ordered input).
func NewStreamExtractorSkew(opts FeatureOptions, maxSkew time.Duration) *StreamExtractor {
	grace := opts.NewPeerGrace
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	if maxSkew < 0 {
		maxSkew = 0
	}
	se := &StreamExtractor{
		opts:     opts,
		grace:    grace,
		maxSkew:  maxSkew,
		builders: make(map[IP]*featureBuilder),
	}
	se.pending.init(maxSkew)
	return se
}

// Metrics attaches reg's instruments to the extractor: the
// "stream/records" counter (records accepted), "stream/skew_drops"
// counter (records rejected for arriving more than MaxSkew late),
// "stream/pending_highwater" gauge (most records awaiting processing at
// once, the one just accepted included),
// and "stream/hosts" gauge (distinct initiators tracked). A nil reg
// detaches. Returns se for chaining.
func (se *StreamExtractor) Metrics(reg *metrics.Registry) *StreamExtractor {
	se.recCtr = reg.Counter("stream/records")
	se.dropCtr = reg.Counter("stream/skew_drops")
	se.pendingHW = reg.Gauge("stream/pending_highwater")
	se.hostCtr = reg.Gauge("stream/hosts")
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
func (se *StreamExtractor) Add(r *Record) error {
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
		se.process(r)
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
func (se *StreamExtractor) release(bound int64) {
	for r := se.pending.peek(bound); r != nil; r = se.pending.peek(bound) {
		se.released = r.Start
		se.process(r)
		se.pending.pop()
	}
}

// Drain processes every buffered record (end of feed).
func (se *StreamExtractor) Drain() {
	se.release(se.frontier.UnixNano() + 1)
}

// ReleaseBefore force-processes every buffered record with a start time
// strictly before t and then forbids records earlier than t: subsequent
// Add calls with start < t are rejected as skew drops. This is the
// window-sealing primitive — the engine calls it at a pane boundary once
// the stream frontier proves no conforming record below t can still
// arrive, so records at or past t stay buffered for the next pane.
func (se *StreamExtractor) ReleaseBefore(t time.Time) {
	se.release(t.UnixNano())
	if t.After(se.released) {
		se.released = t
	}
}

// CarryFirstSeen enables (or, with false, disables) first-seen carrying
// across panes: when a host reappears after TakePane, its new builder's
// grace period stays anchored at the host's earliest activity ever seen,
// matching what a batch extraction over the whole stream would anchor —
// instead of restarting the θ_churn warm-up every window.
func (se *StreamExtractor) CarryFirstSeen(on bool) {
	if on && se.anchors == nil {
		se.anchors = make(map[IP]time.Time)
	} else if !on {
		se.anchors = nil
	}
}

// TakePane detaches the accumulated builders as a sealed Pane covering w
// and resets the extractor for the next pane. Buffered (pending) records
// are untouched — call ReleaseBefore(w.To) first so everything belonging
// to the pane has been processed. When first-seen carrying is enabled,
// each detached host's earliest activity is remembered and re-anchors
// the host's grace period in later panes.
func (se *StreamExtractor) TakePane(w Window) *Pane {
	builders := se.builders
	se.builders = make(map[IP]*featureBuilder)
	se.hostCtr.Set(0)
	if se.anchors != nil {
		for ip, b := range builders {
			if cur, ok := se.anchors[ip]; !ok || b.feats.FirstSeen.Before(cur) {
				se.anchors[ip] = b.feats.FirstSeen
			}
		}
	}
	return &Pane{builders: builders, window: w}
}

func (se *StreamExtractor) process(r *Record) {
	if se.opts.Hosts != nil && !se.opts.Hosts(r.Src) {
		return
	}
	b, ok := se.builders[r.Src]
	if !ok {
		first := r.Start
		if anchor, ok := se.anchors[r.Src]; ok && anchor.Before(first) {
			first = anchor
		}
		b = newFeatureBuilder(r.Src, first)
		se.builders[r.Src] = b
		se.hostCtr.Set(int64(len(se.builders)))
	}
	b.observe(r, se.grace)
}

// Records returns how many records have been accepted (including ones
// still buffered).
func (se *StreamExtractor) Records() int { return se.count }

// Pending returns how many records are buffered awaiting the watermark.
func (se *StreamExtractor) Pending() int { return se.pending.len() }

// Hosts returns how many distinct initiators have been processed.
func (se *StreamExtractor) Hosts() int { return len(se.builders) }

// Snapshot returns the current per-host features (excluding buffered
// records; call Drain first at end of feed). The returned map and its
// values are live views — callers must not mutate them and must not
// interleave reads with Add calls from other goroutines.
func (se *StreamExtractor) Snapshot() map[IP]*HostFeatures {
	out := make(map[IP]*HostFeatures, len(se.builders))
	for ip, b := range se.builders {
		out[ip] = b.feats
	}
	return out
}

// Features implements FeatureSource over the current state (a live
// view, like Snapshot).
func (se *StreamExtractor) Features() map[IP]*HostFeatures { return se.Snapshot() }

// Contacts implements ContactSource over the current state: each host's
// contacted destinations so far, in ascending address order. Like
// Snapshot, reads must not interleave with Add calls from other
// goroutines.
func (se *StreamExtractor) Contacts() map[IP][]IP {
	return contactsOfBuilders(se.builders)
}

// Window implements FeatureSource: the span of processed start times,
// half-open past the frontier. Zero until a record has been processed.
func (se *StreamExtractor) Window() Window {
	if se.count == 0 {
		return Window{}
	}
	return Window{From: se.first, To: se.frontier.Add(1)}
}

// observe folds one record into a host's builder. Shared by the batch
// and streaming extractors so their semantics cannot drift.
func (b *featureBuilder) observe(r *Record, grace time.Duration) {
	f := b.feats
	f.Flows++
	if r.Failed() {
		f.FailedFlows++
	} else {
		f.SuccessfulFlows++
	}
	f.BytesUploaded += r.SrcBytes
	if r.Start.After(f.LastSeen) {
		f.LastSeen = r.Start
	}
	start := r.Start.UnixNano()
	d, seen := b.dests[r.Dst]
	if seen {
		f.Interstitials = append(f.Interstitials, time.Duration(start-d.last).Seconds())
	} else {
		d.first = start
		f.Peers++
		if r.Start.Sub(f.FirstSeen) > grace {
			f.NewPeers++
		}
	}
	d.last = start
	b.dests[r.Dst] = d
}
