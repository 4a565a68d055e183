// Package eval scores the detection pipeline against ground truth and
// drives the paper's evaluation (§V): it overlays the honeynet Plotter
// traces onto each synthesized campus day, runs the pipeline, and
// computes the true/false positive rates behind every figure.
package eval

import (
	"fmt"
	"math/rand"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/label"
	"plotters/internal/overlay"
	"plotters/internal/synth"
	"plotters/internal/synth/scenario"
)

// Trace labels used for ground truth.
const (
	LabelStorm   = "storm"
	LabelNugache = "nugache"
)

// DayEval is one day's overlaid dataset with ground truth and analysis.
type DayEval struct {
	// Day is the underlying campus day.
	Day *scenario.Day
	// Records is the overlaid traffic (campus + Traders + bots).
	Records []flow.Record
	// Analysis holds per-host features over Records.
	Analysis *core.Analysis
	// Storm and Nugache are the internal hosts carrying each botnet's
	// traffic.
	Storm   core.HostSet
	Nugache core.HostSet
	// Traders are the internal hosts ground-truth-labeled as file
	// sharers by the §III payload rules (the synthesized Trader hosts
	// whose flows carry protocol signatures).
	Traders core.HostSet
	// BotFlows counts the in-window bot flows carried per bot host.
	BotFlows map[flow.IP]int

	// detection caches the default-configuration pipeline outcome.
	detection *core.Result
	// detections caches every configured detector's verdict (the
	// multi-detector framework); a multi-detector suite populates it
	// when it builds the day.
	detections []*core.Detection
	// source is the day's feature set (contact sets included), the input
	// of every detector.
	source *flow.FeatureSet
}

// Detect returns the day's full pipeline outcome at the suite
// configuration, computing and caching it on first use, so the figures
// share one run.
func (d *DayEval) Detect() (*core.Result, error) {
	if d.detection != nil {
		return d.detection, nil
	}
	res, err := d.Analysis.FindPlotters()
	if err != nil {
		return nil, err
	}
	d.detection = res
	return res, nil
}

// Detections returns every detector's verdict for the day. Days built
// by a multi-detector suite arrive with the verdicts attached; a plain
// day falls back to the paper pipeline alone, wrapped as a
// single-element detection list.
func (d *DayEval) Detections() ([]*core.Detection, error) {
	if d.detections != nil {
		return d.detections, nil
	}
	res, err := d.Detect()
	if err != nil {
		return nil, err
	}
	d.detections = []*core.Detection{{Detector: core.PaperName, Suspects: res.Suspects, Paper: res}}
	return d.detections, nil
}

// Plotters returns all bot-carrying hosts.
func (d *DayEval) Plotters() core.HostSet { return d.Storm.Union(d.Nugache) }

// DetectWith runs the given detectors over the day's feature source and
// returns their verdicts in detector order, without touching the day's
// cached default-configuration results.
func (d *DayEval) DetectWith(detectors []core.Detector) ([]*core.Detection, error) {
	out := make([]*core.Detection, 0, len(detectors))
	for _, det := range detectors {
		detection, err := det.Detect(d.source)
		if err != nil {
			return nil, fmt.Errorf("eval: detector %s: %w", det.Name(), err)
		}
		out = append(out, detection)
	}
	return out, nil
}

// Overlay builds a DayEval: assign the traces' bots to random active
// hosts, merge, label Traders from payloads, and extract the day's
// features in one batch pass.
func Overlay(day *scenario.Day, storm, nugache overlay.Trace, seed int64, cfg core.Config) (*DayEval, error) {
	rng := rand.New(rand.NewSource(seed))
	ov, err := overlay.Overlay(rng, day.Records, day.Window, synth.IsInternal, storm, nugache)
	if err != nil {
		return nil, fmt.Errorf("eval: overlaying day: %w", err)
	}
	d := &DayEval{
		Day:      day,
		Records:  ov.Records,
		Storm:    core.HostSet{},
		Nugache:  core.HostSet{},
		Traders:  core.HostSet{},
		BotFlows: ov.BotFlows,
	}
	for host, lbl := range ov.BotHosts {
		switch lbl {
		case LabelStorm:
			d.Storm[host] = true
		case LabelNugache:
			d.Nugache[host] = true
		default:
			return nil, fmt.Errorf("eval: unknown trace label %q", lbl)
		}
	}
	for host := range label.Traders(ov.Records, synth.IsInternal) {
		// A Trader host that also carries a bot counts as a Plotter for
		// scoring: the paper's overlay explicitly allows bots to land on
		// Traders.
		if !d.Storm[host] && !d.Nugache[host] {
			d.Traders[host] = true
		}
	}
	t := cfg.Metrics.StartStage("pipeline/extract")
	d.source = flow.ExtractFeatureSet(d.Records, flow.FeatureOptions{
		Hosts:        synth.IsInternal,
		NewPeerGrace: cfg.NewPeerGrace,
	}, flow.Window{})
	t.Stop()
	cfg.Metrics.Counter("pipeline/records").Add(int64(len(d.Records)))
	if d.Analysis, err = core.NewAnalysisFromSource(d.source, cfg); err != nil {
		return nil, fmt.Errorf("eval: analyzing day: %w", err)
	}
	return d, nil
}

// StormTrace and NugacheTrace adapt scenario traces for overlaying.
func StormTrace(ds *scenario.Dataset) overlay.Trace {
	return overlay.Trace{Label: LabelStorm, Records: ds.Storm.Records, Bots: ds.Storm.Bots}
}

// NugacheTrace adapts the Nugache trace for overlaying.
func NugacheTrace(ds *scenario.Dataset) overlay.Trace {
	return overlay.Trace{Label: LabelNugache, Records: ds.Nugache.Records, Bots: ds.Nugache.Bots}
}

// Rates is a detection outcome relative to an input set.
type Rates struct {
	// TP and FP count detected Plotters and flagged non-Plotters.
	TP, FP int
	// Plotters and Others are the denominators within the input set.
	Plotters, Others int
}

// TPR returns TP / Plotters (0 when no Plotters are in the input).
func (r Rates) TPR() float64 {
	if r.Plotters == 0 {
		return 0
	}
	return float64(r.TP) / float64(r.Plotters)
}

// FPR returns FP / Others (0 when no non-Plotters are in the input).
func (r Rates) FPR() float64 {
	if r.Others == 0 {
		return 0
	}
	return float64(r.FP) / float64(r.Others)
}

// Precision returns TP / (TP + FP) — the fraction of flagged hosts that
// really are Plotters (0 when nothing was flagged).
func (r Rates) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 0
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall returns TP / Plotters, the precision-recall name for TPR.
func (r Rates) Recall() float64 { return r.TPR() }

// Score computes detection rates for kept relative to the input set,
// counting members of truth as Plotters.
func Score(kept, input, truth core.HostSet) Rates {
	var r Rates
	for h := range input {
		if truth[h] {
			r.Plotters++
			if kept[h] {
				r.TP++
			}
		} else {
			r.Others++
			if kept[h] {
				r.FP++
			}
		}
	}
	return r
}

// Add accumulates another sample (for averaging across days).
func (r *Rates) Add(other Rates) {
	r.TP += other.TP
	r.FP += other.FP
	r.Plotters += other.Plotters
	r.Others += other.Others
}
