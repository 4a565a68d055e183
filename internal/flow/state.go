package flow

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// This file is the durable-state seam of the feature layer: exported,
// plain-data snapshots of the incremental extractors' internal state, so
// internal/checkpoint can persist a live deployment and restore it
// bit-identically after a crash. The types are the format, not a mirror
// of the accumulation structures: a host's per-destination table leaves
// as one address-sorted Dests list and the per-host pending lists as one
// start-sorted Pending list, so how the extractor lays state out in
// memory can change without the snapshot bytes changing. State()
// detaches a deep copy, RestoreState() rebuilds the originals inside a
// freshly constructed extractor. Configuration (FeatureOptions, shard
// count, skew) is never part of the state — the restoring caller
// constructs the extractor with the same configuration, and the
// checkpoint layer pins that equality in its metadata.

// DestTimes is one entry of a host's per-destination table: a
// destination, the host's first contact with it and its latest flow
// start to it.
type DestTimes struct {
	Dst         IP
	First, Last time.Time
}

// HostState is one host's accumulated state: the features themselves
// plus the per-destination entries that let later records extend them
// (peer de-duplication and interstitial gaps). Feats.Peers is
// len(Dests).
type HostState struct {
	Feats HostFeatures
	Dests []DestTimes // ascending by Dst
}

// PendingState is one record on its host's pending list, cut down to
// the fields the features read.
type PendingState struct {
	Src, Dst IP
	Start    time.Time
	SrcBytes uint64
	Failed   bool
}

// StreamState is a complete snapshot of one store shard's dynamic
// state. Slices are ordered deterministically (hosts by address,
// pending by start, then host, then arrival) so the same
// extractor state always serializes to the same bytes.
type StreamState struct {
	Frontier time.Time
	Released time.Time
	Hosts    []HostState
	Pending  []PendingState
}

// ShardedState is a complete snapshot of a ShardedExtractor: one
// StreamState per shard, in shard order. Restoring requires the same
// shard count (the shard hash is deterministic, so equal counts mean
// every host lands back on the shard that accumulated it).
type ShardedState struct {
	Shards []StreamState
}

// PaneState is a serializable sealed pane: its window plus every host's
// state in it.
type PaneState struct {
	Window Window
	Hosts  []HostState
}

// statesOf snapshots a pane's hosts as address-sorted HostStates,
// deep-copying every slice.
func statesOf(p *Pane) []HostState {
	out := slices.Grow([]HostState(nil), p.Hosts())
	p.each(func(f *HostFeatures, dsts []IP, spans []span) {
		hs := HostState{Feats: *f, Dests: make([]DestTimes, len(dsts))}
		hs.Feats.Interstitials = append([]float64(nil), f.Interstitials...)
		for j, dst := range dsts {
			hs.Dests[j] = DestTimes{Dst: dst, First: time.Unix(0, spans[j].first).UTC(), Last: time.Unix(0, spans[j].last).UTC()}
		}
		out = append(out, hs)
	})
	slices.SortFunc(out, func(a, b HostState) int { return cmp.Compare(a.Feats.Host, b.Feats.Host) })
	return out
}

// State detaches a deep snapshot of the extractor's dynamic state.
// Configuration (FeatureOptions, MaxSkew) is not included; restore into
// an extractor constructed with the same configuration.
func (se *shardExtractor) State() *StreamState {
	st := &StreamState{
		Frontier: se.frontier,
		Released: se.released,
		Hosts:    se.acc.states(),
	}
	if se.pending.n == 0 {
		return st
	}
	st.Pending = make([]PendingState, 0, se.pending.n)
	for _, i := range se.pending.active {
		q := &se.pending.queues[i]
		for slot := q.head; slot != noEntry; slot = se.pending.slab[slot].next {
			c := &se.pending.slab[slot].compactRecord
			st.Pending = append(st.Pending, PendingState{
				Src: q.host, Dst: c.dst,
				Start:    time.Unix(0, c.start).UTC(),
				SrcBytes: c.srcBytes,
				Failed:   c.state == StateFailed,
			})
		}
	}
	// Stable: a host's entries with equal starts keep their list order.
	slices.SortStableFunc(st.Pending, func(a, b PendingState) int {
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Src, b.Src)
	})
	return st
}

// RestoreState replaces the extractor's dynamic state with a previously
// snapshotted one. The extractor must be freshly constructed (no records
// added) with the same FeatureOptions and MaxSkew as the snapshotted
// one; feature semantics would silently diverge otherwise, so an
// extractor that has taken a record (which moves its frontier) is
// rejected.
func (se *shardExtractor) RestoreState(st *StreamState) error {
	if !se.frontier.IsZero() || len(se.acc.hosts) != 0 || se.pending.n != 0 {
		return fmt.Errorf("flow: RestoreState on an extractor that has already taken records (frontier %v)", se.frontier)
	}
	se.frontier = st.Frontier
	se.released = st.Released
	// Every host of the open pane gets its slot back, named by its queue
	// as a fold would have. Its host is monitored, so the queue may
	// exist.
	for i := range st.Hosts {
		qi := se.pending.queue(st.Hosts[i].Feats.Host)
		q := &se.pending.queues[qi]
		if q.slot != noEntry {
			return fmt.Errorf("flow: snapshot lists host %v twice", q.host)
		}
		q.slot = se.acc.load(&st.Hosts[i], qi)
	}
	se.hostsHW.SetMax(int64(len(se.acc.hosts)))
	for _, p := range st.Pending {
		if se.opts.Hosts != nil && !se.opts.Hosts(p.Src) {
			continue // an older build held unmonitored records too
		}
		state := StateEstablished
		if p.Failed {
			state = StateFailed
		}
		se.pending.file(se.pending.queue(p.Src), compactRecord{
			start: p.Start.UnixNano(), srcBytes: p.SrcBytes, dst: p.Dst, state: state,
		})
	}
	return nil
}

// State detaches a deep snapshot of every shard, locking one shard at a
// time (a concurrent snapshot, like TakePane — callers that need a
// point-in-time-consistent image across shards must quiesce ingest).
func (se *ShardedExtractor) State() *ShardedState {
	st := &ShardedState{Shards: make([]StreamState, len(se.shards))}
	se.each(func(i int, ex *shardExtractor) { st.Shards[i] = *ex.State() })
	return st
}

// RestoreState restores every shard from a ShardedState snapshot. The
// store must be freshly constructed with the same shard count as the
// snapshotted one — the shard hash is deterministic, so an equal count
// puts every host back on the shard whose frontier it advanced.
func (se *ShardedExtractor) RestoreState(st *ShardedState) error {
	if len(st.Shards) != len(se.shards) {
		return fmt.Errorf("flow: snapshot has %d shards, store has %d (restore with the snapshotted shard count)",
			len(st.Shards), len(se.shards))
	}
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		err := s.ex.RestoreState(&st.Shards[i])
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("flow: shard %d: %w", i, err)
		}
	}
	return nil
}

// State detaches a deep snapshot of the sealed pane.
func (p *Pane) State() *PaneState {
	return &PaneState{Window: p.window, Hosts: statesOf(p)}
}

// NewPaneFromState rebuilds a sealed pane from its snapshot.
func NewPaneFromState(st *PaneState) *Pane {
	var a accumulator
	for i := range st.Hosts {
		a.load(&st.Hosts[i], noEntry)
	}
	return &Pane{shards: []paneShard{a.seal(true)}, window: st.Window}
}
