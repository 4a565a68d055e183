package flow

import (
	"runtime"
	"sync"
	"time"

	"plotters/internal/metrics"
)

// ShardedExtractor is the one feature store: it accumulates per-host
// features incrementally, sharded by source-IP hash across N
// independently locked extractors so ingest scales across cores —
// concurrent Add calls for hosts in different shards never contend, and
// a pane seal locks one shard at a time instead of pausing the world.
// Features leave it only through TakePane, as a sealed window; the store
// itself is never a FeatureSource.
//
// Every record of one host lands in one shard (the shard key is the
// initiator address), so per-host feature state is never split and a
// sealed pane is identical to what one shard fed the same stream would
// produce — for the records it accepts. Which records those are is
// sharding-visible: each shard rejects late records against its own
// released mark, the latest start it has folded, which trails the
// frontier by MaxSkew at least and by as long as the shard's hosts were
// quiet, so a record one shard would drop may be kept by another. A
// caller whose verdict must not depend on the shard count judges
// lateness against the global frontier before Add
// (engine.WindowedDetector does).
type ShardedExtractor struct {
	shards []lockedShard
}

type lockedShard struct {
	mu sync.Mutex
	ex *shardExtractor
	_  [40]byte // keep adjacent shard locks off one cache line
}

// NewShardedExtractorSkew creates a sharded store with the given shard
// count (≤ 0 means one per CPU), tolerating records up to maxSkew out of
// start order per shard (0 = start-ordered input).
func NewShardedExtractorSkew(opts FeatureOptions, shards int, maxSkew time.Duration) *ShardedExtractor {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	se := &ShardedExtractor{shards: make([]lockedShard, shards)}
	for i := range se.shards {
		se.shards[i].ex = newShardExtractor(opts, maxSkew)
	}
	return se
}

// ShardOf hashes an address onto one of n shards. Campus addresses are
// dense and sequential, so the raw value is finalized through an
// avalanche mix (the 32-bit variant of SplitMix's finisher) before the
// modulo. This is the one shard assignment in the system: the in-process
// sharded store and the cross-process shard/coordinator split
// (internal/dist) both use it, so every layer agrees which shard owns a
// host and per-host state is never split across shards.
func ShardOf(ip IP, n int) int {
	x := uint32(ip)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(n))
}

// each runs fn on every shard in turn, under that shard's lock — ingest
// on the other shards proceeds meanwhile.
func (se *ShardedExtractor) each(fn func(i int, ex *shardExtractor)) {
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		fn(i, s.ex)
		s.mu.Unlock()
	}
}

// Shards returns the shard count.
func (se *ShardedExtractor) Shards() int { return len(se.shards) }

// Metrics attaches reg's instruments to every shard: the shared
// "stream/skew_drops" counter (atomic, so shards add into it
// concurrently), the "stream/pending_highwater" gauge (the most entries
// one shard held pending for its monitored hosts), and the
// "sharded/hosts_highwater" gauge tracking the most hosts one shard
// folded into one pane — the load-balance signal. Behind a
// WindowedDetector, stream/skew_drops counts only what the store itself
// refused — records within MaxSkew of the frontier but below the open
// pane's start; the engine's "engine/drops" is every late record. A nil
// reg detaches. Returns se for chaining.
func (se *ShardedExtractor) Metrics(reg *metrics.Registry) *ShardedExtractor {
	se.each(func(_ int, ex *shardExtractor) {
		ex.dropCtr = reg.Counter("stream/skew_drops")
		ex.pendingHW = reg.Gauge("stream/pending_highwater")
		ex.hostsHW = reg.Gauge("sharded/hosts_highwater")
	})
	return se
}

// Add folds one record into the owning shard. Safe for concurrent use.
func (se *ShardedExtractor) Add(r *Record) error {
	s := &se.shards[ShardOf(r.Src, len(se.shards))]
	s.mu.Lock()
	err := s.ex.Add(r)
	s.mu.Unlock()
	return err
}

// Drain folds every pending entry on every shard (end of feed).
func (se *ShardedExtractor) Drain() {
	se.each(func(_ int, ex *shardExtractor) { ex.Drain() })
}

// ReleaseBefore force-folds pending entries with start < t on
// every shard and then forbids additions below t: a later Add with
// start < t is rejected as a skew drop. This is the window-sealing
// primitive — the engine calls it at a pane boundary once the frontier
// proves no conforming record below t can still arrive, so records at
// or past t stay pending for the next pane.
func (se *ShardedExtractor) ReleaseBefore(t time.Time) {
	se.each(func(_ int, ex *shardExtractor) { ex.ReleaseBefore(t) })
}

// TakePane is SealPane(w, true): a pane that MergePanes can stitch to
// its neighbours and State can snapshot.
func (se *ShardedExtractor) TakePane(w Window) *Pane { return se.SealPane(w, true) }

// SealPane seals every shard for window w, copying each one's hosts
// into the pane (hosts never straddle shards, so a pane is the shards'
// parts side by side), and resets the store for the next pane. Pending
// entries stay; call ReleaseBefore(w.To) first. Without spans the pane
// keeps no destination's first contact and latest start: its
// FeatureSet is exact, but it cannot be merged or snapshotted, so only
// a pane that is detected alone — a tumbling window — goes without.
func (se *ShardedExtractor) SealPane(w Window, spans bool) *Pane {
	p := &Pane{shards: make([]paneShard, 0, len(se.shards)), window: w}
	se.each(func(_ int, ex *shardExtractor) {
		if s := ex.take(spans); len(s.feats) > 0 {
			p.shards = append(p.shards, s)
		}
	})
	return p
}

// Hosts returns how many monitored hosts have records folded into the
// open pane, across shards. Records still pending, records of
// unmonitored initiators and earlier panes do not count.
func (se *ShardedExtractor) Hosts() int {
	n := 0
	se.each(func(_ int, ex *shardExtractor) { n += len(ex.acc.hosts) })
	return n
}

// Pending returns the total count of entries still pending across
// shards.
func (se *ShardedExtractor) Pending() int {
	n := 0
	se.each(func(_ int, ex *shardExtractor) { n += ex.pending.n })
	return n
}
