package eval

import (
	"fmt"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/overlay"
	"plotters/internal/synth"
	"plotters/internal/synth/scenario"
)

// Suite drives the paper's evaluation over one synthesized dataset. Day
// overlays are cached so several experiments can share them.
//
// Days are streamed through one continuous windowed detection engine:
// the overlaid records of each day feed the engine's sharded feature
// store, the day's collection window seals on punctuation, and the
// emitted window result supplies both the day's Analysis and its cached
// default-configuration detection — features are accumulated once per
// day, never re-extracted per figure.
type Suite struct {
	ds        *scenario.Dataset
	cfg       core.Config
	seed      int64
	days      []*DayEval
	detectors []core.Detector // nil = paper pipeline alone

	eng     *engine.WindowedDetector
	cursor  int            // next day index to stream through the engine
	emitted *engine.Result // last window the engine emitted
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
	s := &Suite{ds: ds, cfg: cfg, seed: seed, detectors: detectors, days: make([]*DayEval, len(ds.Days))}
	if alignedDays(ds.Days) {
		eng, err := engine.New(engine.Config{
			Window:    ds.Days[0].Window.Duration(),
			Origin:    ds.Days[0].Window.From,
			Internal:  synth.IsInternal,
			Core:      cfg,
			Detectors: detectors,
		}, func(r *engine.Result) error { s.emitted = r; return nil })
		if err != nil {
			return nil, fmt.Errorf("eval: building windowed engine: %w", err)
		}
		s.eng = eng
	}
	return s, nil
}

// alignedDays reports whether the collection windows form a strictly
// increasing sequence of equal-length windows on a common tumbling grid
// — the layout one continuous engine can tile. Anything else falls back
// to per-day batch extraction.
func alignedDays(days []*scenario.Day) bool {
	w0 := days[0].Window
	dur := w0.Duration()
	if dur <= 0 {
		return false
	}
	for i, d := range days[1:] {
		w := d.Window
		if w.Duration() != dur || !w.From.After(days[i].Window.From) {
			return false
		}
		if w.From.Sub(w0.From)%dur != 0 {
			return false
		}
	}
	return true
}

// Dataset returns the underlying corpus.
func (s *Suite) Dataset() *scenario.Dataset { return s.ds }

// Config returns the pipeline configuration.
func (s *Suite) Config() core.Config { return s.cfg }

// Days returns the number of evaluation days.
func (s *Suite) Days() int { return len(s.days) }

// Day returns the i-th overlaid day, building it on first use. With an
// aligned dataset the days up to i stream in order through the windowed
// engine; otherwise each day is batch-extracted independently.
func (s *Suite) Day(i int) (*DayEval, error) {
	if i < 0 || i >= len(s.days) {
		return nil, fmt.Errorf("eval: day %d out of range [0,%d)", i, len(s.days))
	}
	if s.eng == nil {
		if s.days[i] == nil {
			de, err := Overlay(s.ds.Days[i], StormTrace(s.ds), NugacheTrace(s.ds), s.daySeed(i), s.cfg)
			if err != nil {
				return nil, err
			}
			if len(s.detectors) > 0 {
				// Batch fallback with explicit detectors: run each over the
				// day's retained feature set (contact sets included).
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
		}
		return s.days[i], nil
	}
	for s.cursor <= i {
		if err := s.streamDay(s.cursor); err != nil {
			return nil, err
		}
		s.cursor++
	}
	return s.days[i], nil
}

// streamDay overlays day j and pushes it through the engine: records
// accumulate in the sharded store, the day's collection window seals on
// end-of-day punctuation, and the emitted result carries the features
// and the detection outcome.
func (s *Suite) streamDay(j int) error {
	de, err := overlayDay(s.ds.Days[j], StormTrace(s.ds), NugacheTrace(s.ds), s.daySeed(j))
	if err != nil {
		return err
	}
	s.emitted = nil
	for k := range de.Records {
		if err := s.eng.Add(&de.Records[k]); err != nil {
			return fmt.Errorf("eval: streaming day %d: %w", j, err)
		}
	}
	if err := s.eng.AdvanceTo(s.ds.Days[j].Window.To); err != nil {
		return fmt.Errorf("eval: sealing day %d: %w", j, err)
	}
	if res := s.emitted; res != nil {
		de.Analysis = res.Detection.Analysis
		de.detection = res.Detection
		de.detections = res.Detections
	} else {
		// A day with no monitored traffic: an empty analysis keeps the
		// batch path's behavior.
		de.Analysis, err = core.NewAnalysisFromSource(
			flow.NewFeatureSet(nil, s.ds.Days[j].Window), s.cfg)
		if err != nil {
			return err
		}
	}
	s.days[j] = de
	return nil
}

// daySeed derives day i's overlay seed.
func (s *Suite) daySeed(i int) int64 { return s.seed + int64(i)*104729 }

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

// jitteredDay overlays one day with pre-transformed Plotter traces (used
// by the §VI jitter experiment), keeping the same host assignments as the
// untransformed overlay by reusing the same per-day seed.
func (s *Suite) jitteredDay(i int, storm, nugache overlay.Trace) (*DayEval, error) {
	return Overlay(s.ds.Days[i], storm, nugache, s.daySeed(i), s.cfg)
}

// PercentileSweep is the paper's threshold sweep for every ROC figure.
var PercentileSweep = []float64{10, 30, 50, 70, 90}
