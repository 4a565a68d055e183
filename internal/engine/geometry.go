package engine

import (
	"time"

	"plotters/internal/flow"
)

// Geometry is the part of a Config that decides which window a record
// lands in and how a host's features accumulate across windows. State
// built under one geometry is silently wrong under another — features
// would just accumulate differently — so whatever persists or ships
// engine state (checkpoint.Meta, dist.Fingerprint) pins a Geometry and
// refuses a peer whose Mismatch names a knob.
type Geometry struct {
	Window  time.Duration
	Slide   time.Duration
	MaxSkew time.Duration
	// Grace is the resolved θ_churn new-peer grace (never 0).
	Grace time.Duration
	// Shards is a resolved count (never 0): the feature store's shards
	// for a snapshot, the deployment's worker processes for a handshake.
	Shards int
}

// Geometry derives c's geometry at the given resolved shard count.
func (c Config) Geometry(shards int) Geometry {
	grace := c.Core.NewPeerGrace
	if grace <= 0 {
		grace = flow.DefaultNewPeerGrace
	}
	return Geometry{
		Window:  c.Window,
		Slide:   c.Slide,
		MaxSkew: c.MaxSkew,
		Grace:   grace,
		Shards:  shards,
	}
}

// pane is the resolved slide: Window for tumbling windows, which Slide
// 0 and Slide == Window both build.
func (g Geometry) pane() time.Duration {
	if g.Slide > 0 && g.Slide < g.Window {
		return g.Slide
	}
	return g.Window
}

// Mismatch names the first knob on which g and other differ, with g's
// value and then other's; knob is "" when they are equal. The slide is
// compared resolved, so Slide 0 and Slide == Window match.
func (g Geometry) Mismatch(other Geometry) (knob string, mine, theirs any) {
	for _, k := range []struct {
		name string
		a, b any
	}{
		{"window", g.Window, other.Window},
		{"slide", g.pane(), other.pane()},
		{"max-skew", g.MaxSkew, other.MaxSkew},
		{"new-peer grace", g.Grace, other.Grace},
		{"shard count", g.Shards, other.Shards},
	} {
		if k.a != k.b {
			return k.name, k.a, k.b
		}
	}
	return "", nil, nil
}
