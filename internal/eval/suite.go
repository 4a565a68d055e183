package eval

import (
	"fmt"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/overlay"
	"plotters/internal/synth/scenario"
)

// Suite drives the paper's evaluation over one synthesized dataset with
// one detector list. Each day is built once by Overlay — batch feature
// extraction over the overlaid records — scored with that list and
// cached, so the figures share one feature set and one detection run per
// day.
type Suite struct {
	ds        *scenario.Dataset
	cfg       core.Config
	seed      int64
	days      []*DayEval
	detectors []core.Detector
}

// NewSuite wraps a dataset scored with the paper pipeline alone. seed
// controls the overlay host assignments.
func NewSuite(ds *scenario.Dataset, cfg core.Config, seed int64) (*Suite, error) {
	return NewSuiteDetectors(ds, cfg, seed, nil)
}

// NewSuiteDetectors wraps a dataset with the detector list run over
// every day (the multi-detector framework); an empty list is the paper
// pipeline alone at cfg. The list must include the paper pipeline (a
// detector named core.PaperName) — the figures score stage compositions
// only it produces.
func NewSuiteDetectors(ds *scenario.Dataset, cfg core.Config, seed int64, detectors []core.Detector) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ds.Days) == 0 {
		return nil, fmt.Errorf("eval: dataset has no days")
	}
	if len(detectors) == 0 {
		paper, err := core.NewPaperDetector(cfg)
		if err != nil {
			return nil, err
		}
		detectors = []core.Detector{paper}
	}
	hasPaper := false
	for _, d := range detectors {
		hasPaper = hasPaper || d.Name() == core.PaperName
	}
	if !hasPaper {
		return nil, fmt.Errorf("eval: detector list must include the paper pipeline (%s)", core.PaperName)
	}
	return &Suite{ds: ds, cfg: cfg, seed: seed, detectors: detectors, days: make([]*DayEval, len(ds.Days))}, nil
}

// Days returns the number of evaluation days.
func (s *Suite) Days() int { return len(s.days) }

// Day returns the i-th overlaid day, scored with the suite's detectors,
// building it on first use.
func (s *Suite) Day(i int) (*DayEval, error) {
	if i < 0 || i >= len(s.days) {
		return nil, fmt.Errorf("eval: day %d out of range [0,%d)", i, len(s.days))
	}
	if s.days[i] == nil {
		de, err := s.overlaid(i, StormTrace(s.ds), NugacheTrace(s.ds), s.detectors)
		if err != nil {
			return nil, err
		}
		s.days[i] = de
	}
	return s.days[i], nil
}

// Sweep overlays the given — possibly transformed — Plotter traces onto
// each of the first days days (0 = all) and hands every day to fn, scored
// with detectors (empty: the paper pipeline alone at the suite
// configuration). Days are built one at a time and not cached.
func (s *Suite) Sweep(storm, nugache overlay.Trace, days int, detectors []core.Detector, fn func(i int, de *DayEval) error) error {
	if days <= 0 || days > s.Days() {
		days = s.Days()
	}
	for i := 0; i < days; i++ {
		de, err := s.overlaid(i, storm, nugache, detectors)
		if err != nil {
			return err
		}
		if err := fn(i, de); err != nil {
			return err
		}
	}
	return nil
}

// overlaid builds day i from the given Plotter traces under the day's own
// seed, so every variant of a day keeps the same host assignments.
func (s *Suite) overlaid(i int, storm, nugache overlay.Trace, detectors []core.Detector) (*DayEval, error) {
	de, err := Overlay(s.ds.Days[i], storm, nugache, s.seed+int64(i)*104729, s.cfg)
	if err == nil && len(detectors) > 0 {
		de.detectors = detectors
	}
	return de, err
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

func (c *StageCounts) add(class hostClass) {
	switch class {
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

// Tally is a kept set's per-class composition against the input set it
// was drawn from; every rate the evaluation reports derives from it.
type Tally struct {
	// Kept counts the kept members of the input set, Input the whole
	// input set.
	Kept, Input StageCounts
}

// Tally counts kept against input per class: storm, nugache, trader and
// campus. Kept hosts outside input are not counted.
func (d *DayEval) Tally(kept, input core.HostSet) Tally {
	var t Tally
	for h := range input {
		c := d.classOf(h)
		t.Input.add(c)
		if kept[h] {
			t.Kept.add(c)
		}
	}
	return t
}

// Add accumulates another tally (for totals across days).
func (t *Tally) Add(o Tally) {
	t.Kept.Add(o.Kept)
	t.Input.Add(o.Input)
}

// Overall scores both botnets' hosts as the Plotters.
func (t Tally) Overall() Rates {
	return t.rates(t.Kept.Storm+t.Kept.Nugache, t.Input.Storm+t.Input.Nugache)
}

// Storm scores the Storm bots as the Plotters; every other host,
// Nugache bots included, is an Other.
func (t Tally) Storm() Rates { return t.rates(t.Kept.Storm, t.Input.Storm) }

// Nugache scores the Nugache bots as the Plotters.
func (t Tally) Nugache() Rates { return t.rates(t.Kept.Nugache, t.Input.Nugache) }

func (t Tally) rates(tp, plotters int) Rates {
	return Rates{TP: tp, FP: t.Kept.Total() - tp, Plotters: plotters, Others: t.Input.Total() - plotters}
}

// frac returns n / of, or 0 when of is 0.
func frac(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// PercentileSweep is the paper's threshold sweep for every ROC figure.
var PercentileSweep = []float64{10, 30, 50, 70, 90}
