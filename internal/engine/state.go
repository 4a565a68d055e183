package engine

import (
	"fmt"
	"time"

	"plotters/internal/flow"
)

// State is a complete snapshot of a WindowedDetector's dynamic state:
// the window bookkeeping (origin, pane cursor, frontier), the sliding-
// window pane ring, the emitted/dropped counters, and the sharded
// feature store underneath. Together with the records appended to a
// write-ahead log since the snapshot, it is everything a restarted
// process needs to continue detection bit-identically (see
// internal/checkpoint). Configuration is not part of the state — the
// restoring caller constructs the engine with the same Config, and the
// checkpoint layer pins that equality in its metadata.
type State struct {
	// Started reports a frontier: a record or AdvanceTo has set one.
	Started  bool
	Origin   time.Time
	Frontier time.Time
	PaneIdx  int
	Emitted  int
	Dropped  int
	Store    *flow.ShardedState
	Recent   []*flow.PaneState // sliding-window ring, oldest first
}

// State detaches a deep snapshot of the detector. The detector is
// single-writer; call State from the same goroutine that calls Add (or
// while ingest is quiesced), exactly like any other engine method.
func (d *WindowedDetector) State() *State {
	st := &State{
		Started:  !d.frontier.IsZero(),
		Origin:   d.origin,
		Frontier: d.frontier,
		PaneIdx:  d.paneIdx,
		Emitted:  d.emitted,
		Dropped:  d.dropped,
		Store:    d.store.State(),
	}
	for _, p := range d.recent {
		if p == nil {
			st.Recent = append(st.Recent, nil)
			continue
		}
		st.Recent = append(st.Recent, p.State())
	}
	return st
}

// RestoreState replaces a freshly created detector's dynamic state with
// a snapshot. The detector must have been built with the same Config as
// the snapshotted one (window geometry, skew, shard count, grace —
// internal/checkpoint verifies this from its metadata) and must not
// have ingested any records yet. A started snapshot's windows are
// aligned to its origin: an explicit Origin must equal it, and under a
// zero Origin the engine keeps it, so a snapshot written before zero
// meant the epoch resumes on its own grid.
func (d *WindowedDetector) RestoreState(st *State) error {
	if !d.frontier.IsZero() {
		return fmt.Errorf("engine: RestoreState on a detector that has already started")
	}
	if st.Started && !d.cfg.Origin.IsZero() && !st.Origin.Equal(d.cfg.Origin) {
		return fmt.Errorf("engine: snapshot was taken with origin %v but this engine is configured with %v — restore requires the snapshotted configuration",
			st.Origin, d.cfg.Origin)
	}
	if len(st.Recent) > d.k {
		return fmt.Errorf("engine: snapshot carries %d trailing panes, window/slide geometry allows %d",
			len(st.Recent), d.k)
	}
	if st.Store == nil {
		return fmt.Errorf("engine: snapshot has no feature-store state")
	}
	if err := d.store.RestoreState(st.Store); err != nil {
		return err
	}
	if st.Started {
		d.origin = st.Origin
	}
	d.frontier = st.Frontier
	for _, sh := range st.Store.Shards {
		if sh.Frontier.After(d.accepted) {
			d.accepted = sh.Frontier // a shard's frontier is the latest start it accepted
		}
	}
	d.setPane(st.PaneIdx)
	d.emitted = st.Emitted
	d.dropped = st.Dropped
	d.recent = d.recent[:0]
	for _, ps := range st.Recent {
		if ps == nil {
			d.recent = append(d.recent, nil)
			continue
		}
		d.recent = append(d.recent, flow.NewPaneFromState(ps))
	}
	return nil
}
