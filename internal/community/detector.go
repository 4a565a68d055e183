package community

import (
	"fmt"
	"slices"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// Name is the community detector's stable identifier.
const Name = "community"

// Config tunes the community detector. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	// Graph tunes mutual-contact graph construction.
	Graph GraphConfig
	// MaxIterations bounds label-propagation sweeps (0 = default).
	MaxIterations int
	// MinCommunitySize is the smallest community worth flagging. Pairs
	// and singletons carry no coordination evidence — two roommates
	// seeding the same torrent form a 2-community all day.
	MinCommunitySize int
	// MinAvgDegree is the average internal degree a community must reach
	// to be flagged: bots rendezvousing with one shared peer population
	// form near-cliques (avg degree → size-1), while incidental overlap
	// produces sparse chains.
	MinAvgDegree float64
	// Metrics, when non-nil, receives graph-size gauges and per-stage
	// wall times from every run (community/graph_hosts, graph_edges,
	// communities, suspects; community/build, propagate, score). Nil
	// disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// DefaultConfig returns the detector's default operating point, tuned on
// the synthesized campus corpus: an edge takes 3 shared destinations,
// destinations contacted by more than 64 monitored hosts are treated as
// popular services, and a flagged community has at least 3 members
// averaging 2 mutual-contact partners each.
func DefaultConfig() Config {
	return Config{
		Graph:            GraphConfig{MinSharedContacts: 3, MaxFanIn: 64},
		MinCommunitySize: 3,
		MinAvgDegree:     2,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Graph.Validate(); err != nil {
		return err
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("community: MaxIterations = %d must be >= 0 (0 = default)", c.MaxIterations)
	}
	if c.MinCommunitySize < 1 {
		return fmt.Errorf("community: MinCommunitySize = %d must be >= 1", c.MinCommunitySize)
	}
	if !(c.MinAvgDegree >= 0) { // NaN too: it fails every comparison
		return fmt.Errorf("community: MinAvgDegree = %v must be >= 0", c.MinAvgDegree)
	}
	return nil
}

// Detector implements core.Detector with mutual-contact community
// analysis.
type Detector struct {
	cfg Config
}

// New creates a community detector at the given operating point.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Name implements core.Detector.
func (d *Detector) Name() string { return Name }

// Detect implements core.Detector: build the mutual-contact graph from
// the source's contact sets, propagate community labels, and flag the
// communities that are both large and dense enough, with the full
// outcome attached as Detection.Community. The source must track
// contact sets (every window the engine and batch extraction seal does).
func (d *Detector) Detect(src flow.FeatureSource) (*core.Detection, error) {
	contacts := src.Contacts()
	if contacts == nil {
		return nil, fmt.Errorf("community: feature source %T has no contact sets attached", src)
	}
	reg := d.cfg.Metrics

	t := reg.StartStage("community/build")
	g, err := BuildGraph(contacts, d.cfg.Graph)
	t.Stop()
	if err != nil {
		return nil, err
	}
	reg.Gauge("community/graph_hosts").Set(int64(g.Hosts()))
	reg.Gauge("community/graph_edges").Set(int64(g.Edges()))

	t = reg.StartStage("community/propagate")
	comms := Propagate(g, d.cfg.MaxIterations)
	t.Stop()
	reg.Gauge("community/communities").Set(int64(len(comms)))

	t = reg.StartStage("community/score")
	rep := &core.CommunityReport{GraphHosts: g.Hosts(), GraphEdges: g.Edges(), Communities: comms}
	suspects := make(core.HostSet)
	for i := range comms {
		c := &comms[i]
		if len(c.Members) < d.cfg.MinCommunitySize || c.AvgDegree() < d.cfg.MinAvgDegree {
			continue
		}
		rep.Flagged = append(rep.Flagged, c.Label)
		for _, h := range c.Members {
			suspects[h] = true
		}
	}
	slices.Sort(rep.Flagged)
	t.Stop()
	reg.Gauge("community/suspects").Set(int64(len(suspects)))

	return &core.Detection{
		Detector:  d.Name(),
		Suspects:  suspects,
		Community: rep,
	}, nil
}
