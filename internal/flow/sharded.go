package flow

import (
	"runtime"
	"sync"
	"time"

	"plotters/internal/metrics"
)

// ShardedExtractor accumulates the same per-host features as
// StreamExtractor, sharded by source-IP hash across N independently
// locked sub-extractors so ingest scales across cores: concurrent Add
// calls for hosts in different shards never contend, and a snapshot or
// pane seal locks one shard at a time instead of pausing the world.
//
// Every record of one host lands in one shard (the shard key is the
// initiator address), so per-host feature state is never split and a
// merged snapshot is identical to what a single extractor fed the same
// stream would produce. The only sharding-visible difference is skew
// enforcement: each shard rejects late records against its own frontier
// rather than the global one, which is strictly more permissive — a
// record a single extractor would accept is never dropped.
type ShardedExtractor struct {
	shards []extractorShard

	hostsHW *metrics.Gauge // deepest any one shard got (builders)
}

type extractorShard struct {
	mu sync.Mutex
	ex *StreamExtractor
	_  [40]byte // keep adjacent shard locks off one cache line
}

// NewShardedExtractor creates a sharded store with the given shard
// count (≤ 0 means one per CPU), requiring start-ordered input per
// shard.
func NewShardedExtractor(opts FeatureOptions, shards int) *ShardedExtractor {
	return NewShardedExtractorSkew(opts, shards, 0)
}

// NewShardedExtractorSkew creates a sharded store tolerating records up
// to maxSkew out of start order.
func NewShardedExtractorSkew(opts FeatureOptions, shards int, maxSkew time.Duration) *ShardedExtractor {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	se := &ShardedExtractor{shards: make([]extractorShard, shards)}
	for i := range se.shards {
		se.shards[i].ex = NewStreamExtractorSkew(opts, maxSkew)
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

func (se *ShardedExtractor) shardOf(ip IP) *extractorShard {
	return &se.shards[ShardOf(ip, len(se.shards))]
}

// Shards returns the shard count.
func (se *ShardedExtractor) Shards() int { return len(se.shards) }

// Metrics attaches reg's instruments to every shard: the shared
// "stream/records" and "stream/skew_drops" counters (atomic, so shards
// add into them concurrently), plus the "sharded/hosts_highwater" gauge
// tracking the deepest any single shard's host table got — the load-
// balance signal. A nil reg detaches. Returns se for chaining.
func (se *ShardedExtractor) Metrics(reg *metrics.Registry) *ShardedExtractor {
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		s.ex.recCtr = reg.Counter("stream/records")
		s.ex.dropCtr = reg.Counter("stream/skew_drops")
		s.ex.pendingHW = reg.Gauge("stream/pending_highwater")
		// Per-shard host gauges would clobber one another; the high-water
		// mark below carries the sharding signal instead.
		s.ex.hostCtr = nil
		s.mu.Unlock()
	}
	se.hostsHW = reg.Gauge("sharded/hosts_highwater")
	return se
}

// CarryFirstSeen enables or disables first-seen carrying across panes
// on every shard (see StreamExtractor.CarryFirstSeen).
func (se *ShardedExtractor) CarryFirstSeen(on bool) {
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		s.ex.CarryFirstSeen(on)
		s.mu.Unlock()
	}
}

// Add folds one record into the owning shard. Safe for concurrent use.
func (se *ShardedExtractor) Add(r *Record) error {
	s := se.shardOf(r.Src)
	s.mu.Lock()
	before := len(s.ex.builders)
	err := s.ex.Add(r)
	n := len(s.ex.builders)
	s.mu.Unlock()
	// The gauge is one cache line every shard's caller shares: touch it
	// only when this shard's host table actually grew.
	if n > before {
		se.hostsHW.SetMax(int64(n))
	}
	return err
}

// Drain processes every buffered record on every shard (end of feed).
func (se *ShardedExtractor) Drain() {
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		s.ex.Drain()
		s.mu.Unlock()
	}
}

// ReleaseBefore force-processes buffered records with start < t on
// every shard and forbids later additions below t (see
// StreamExtractor.ReleaseBefore).
func (se *ShardedExtractor) ReleaseBefore(t time.Time) {
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		s.ex.ReleaseBefore(t)
		s.mu.Unlock()
	}
}

// TakePanes seals every shard's accumulated state for window w,
// returning one pane per shard (some possibly empty). Shards are sealed
// one at a time — ingest on other shards proceeds meanwhile. Call
// ReleaseBefore(w.To) first.
func (se *ShardedExtractor) TakePanes(w Window) []*Pane {
	panes := make([]*Pane, len(se.shards))
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		panes[i] = s.ex.TakePane(w)
		s.mu.Unlock()
	}
	return panes
}

// TakePane seals every shard for window w and merges the per-shard
// panes into one (hosts never straddle shards, so the merge is a
// disjoint map union).
func (se *ShardedExtractor) TakePane(w Window) *Pane {
	panes := se.TakePanes(w)
	hosts := 0
	for _, p := range panes {
		hosts += len(p.builders)
	}
	builders := make(map[IP]*featureBuilder, hosts)
	for _, p := range panes {
		for ip, b := range p.builders {
			builders[ip] = b
		}
	}
	return &Pane{builders: builders, window: w}
}

// Snapshot merges every shard's current per-host features into one map,
// locking one shard at a time. The returned values are live views;
// callers must not mutate them.
func (se *ShardedExtractor) Snapshot() map[IP]*HostFeatures {
	maps := make([]map[IP]*HostFeatures, len(se.shards))
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		maps[i] = s.ex.Snapshot()
		s.mu.Unlock()
	}
	return MergeFeatureMaps(maps...)
}

// Features implements FeatureSource over the merged current state.
func (se *ShardedExtractor) Features() map[IP]*HostFeatures { return se.Snapshot() }

// Contacts implements ContactSource over the merged current state,
// locking one shard at a time (hosts never straddle shards, so the
// union is disjoint).
func (se *ShardedExtractor) Contacts() map[IP][]IP {
	out := make(map[IP][]IP)
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		shard := s.ex.Contacts()
		s.mu.Unlock()
		for ip, dsts := range shard {
			out[ip] = dsts
		}
	}
	return out
}

// Window implements FeatureSource: the union of the shards' processed
// spans.
func (se *ShardedExtractor) Window() Window {
	var w Window
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		sw := s.ex.Window()
		s.mu.Unlock()
		if sw == (Window{}) {
			continue
		}
		if w == (Window{}) {
			w = sw
			continue
		}
		if sw.From.Before(w.From) {
			w.From = sw.From
		}
		if sw.To.After(w.To) {
			w.To = sw.To
		}
	}
	return w
}

// Records returns the total accepted record count across shards.
func (se *ShardedExtractor) Records() int {
	n := 0
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		n += s.ex.Records()
		s.mu.Unlock()
	}
	return n
}

// Hosts returns the total distinct-initiator count across shards.
func (se *ShardedExtractor) Hosts() int {
	n := 0
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		n += s.ex.Hosts()
		s.mu.Unlock()
	}
	return n
}

// Pending returns the total buffered record count across shards.
func (se *ShardedExtractor) Pending() int {
	n := 0
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		n += s.ex.Pending()
		s.mu.Unlock()
	}
	return n
}
