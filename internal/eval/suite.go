package eval

import (
	"fmt"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/overlay"
	"plotters/internal/synth/scenario"
)

// Suite drives the paper's evaluation over one synthesized dataset. Each
// day is built once by Overlay — batch feature extraction over the
// overlaid records — and cached, so the figures share one feature set
// and one default-configuration detection per day.
type Suite struct {
	ds        *scenario.Dataset
	cfg       core.Config
	seed      int64
	days      []*DayEval
	detectors []core.Detector // nil = paper pipeline alone
}

// NewSuite wraps a dataset. seed controls the overlay host assignments.
func NewSuite(ds *scenario.Dataset, cfg core.Config, seed int64) (*Suite, error) {
	return NewSuiteDetectors(ds, cfg, seed, nil)
}

// NewSuiteDetectors wraps a dataset with an explicit detector list run
// over every day (the multi-detector framework). The list must include
// the paper pipeline (a detector named core.PaperName) — the figures
// score stage compositions only it produces. nil means the paper
// pipeline alone at the suite configuration, the original
// single-detector suite.
func NewSuiteDetectors(ds *scenario.Dataset, cfg core.Config, seed int64, detectors []core.Detector) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ds.Days) == 0 {
		return nil, fmt.Errorf("eval: dataset has no days")
	}
	if detectors != nil {
		hasPaper := false
		for _, d := range detectors {
			hasPaper = hasPaper || d.Name() == core.PaperName
		}
		if !hasPaper {
			return nil, fmt.Errorf("eval: detector list must include the paper pipeline (%s)", core.PaperName)
		}
	}
	return &Suite{ds: ds, cfg: cfg, seed: seed, detectors: detectors, days: make([]*DayEval, len(ds.Days))}, nil
}

// Days returns the number of evaluation days.
func (s *Suite) Days() int { return len(s.days) }

// Day returns the i-th overlaid day, building it on first use. A
// multi-detector suite runs every detector over the day's feature set
// here, once.
func (s *Suite) Day(i int) (*DayEval, error) {
	if i < 0 || i >= len(s.days) {
		return nil, fmt.Errorf("eval: day %d out of range [0,%d)", i, len(s.days))
	}
	if s.days[i] != nil {
		return s.days[i], nil
	}
	de, err := s.overlaid(i, StormTrace(s.ds), NugacheTrace(s.ds))
	if err != nil {
		return nil, err
	}
	if len(s.detectors) > 0 {
		if de.detections, err = de.DetectWith(s.detectors); err != nil {
			return nil, fmt.Errorf("eval: day %d: %w", i, err)
		}
		for _, detn := range de.detections {
			if de.detection == nil {
				de.detection = detn.Paper
			}
		}
	}
	s.days[i] = de
	return de, nil
}

// overlaid builds day i from the given Plotter traces (pre-transformed
// ones for the §VI jitter experiment) under the day's own seed, so every
// variant of a day keeps the same host assignments.
func (s *Suite) overlaid(i int, storm, nugache overlay.Trace) (*DayEval, error) {
	return Overlay(s.ds.Days[i], storm, nugache, s.seed+int64(i)*104729, s.cfg)
}

// windowedBotFeatures extracts per-bot features from a raw (pre-overlay)
// honeynet trace restricted to the collection window of the first day.
func (s *Suite) windowedBotFeatures(records []flow.Record) map[flow.IP]*flow.HostFeatures {
	window := s.ds.Days[0].Window
	// Honeynet traces share their day with day 0 by construction.
	return flow.ExtractFeatures(window.Filter(records), flow.FeatureOptions{NewPeerGrace: s.cfg.NewPeerGrace})
}

// hostClass labels one host for scoring.
type hostClass int

const (
	classCampus hostClass = iota + 1
	classTrader
	classStorm
	classNugache
)

func (d *DayEval) classOf(h flow.IP) hostClass {
	switch {
	case d.Storm[h]:
		return classStorm
	case d.Nugache[h]:
		return classNugache
	case d.Traders[h]:
		return classTrader
	default:
		return classCampus
	}
}

// StageCounts tallies the composition of a host set.
type StageCounts struct {
	Storm   int
	Nugache int
	Traders int
	Others  int
}

// Total returns the host count.
func (c StageCounts) Total() int { return c.Storm + c.Nugache + c.Traders + c.Others }

// Add accumulates counts for cross-day averaging.
func (c *StageCounts) Add(o StageCounts) {
	c.Storm += o.Storm
	c.Nugache += o.Nugache
	c.Traders += o.Traders
	c.Others += o.Others
}

func (d *DayEval) count(set core.HostSet) StageCounts {
	var c StageCounts
	for h := range set {
		switch d.classOf(h) {
		case classStorm:
			c.Storm++
		case classNugache:
			c.Nugache++
		case classTrader:
			c.Traders++
		default:
			c.Others++
		}
	}
	return c
}

// PercentileSweep is the paper's threshold sweep for every ROC figure.
var PercentileSweep = []float64{10, 30, 50, 70, 90}
