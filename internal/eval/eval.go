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

// DayEval is one day's overlaid dataset with ground truth, analysis, and
// the detector list it is scored with.
type DayEval struct {
	// Day is the underlying campus day.
	Day *scenario.Day
	// Records is the overlaid traffic (campus + Traders + bots).
	Records []flow.Record
	// Analysis holds per-host features over Records; its Source is the
	// feature set every detector reads.
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

	// detectors is the list the day is scored with; detections caches
	// their verdicts, run once on first use.
	detectors  []core.Detector
	detections []*core.Detection
}

// Detections runs the day's detectors over its feature set on first use
// and returns their verdicts in detector order, so the figures share one
// run and data-only figures run none.
func (d *DayEval) Detections() ([]*core.Detection, error) {
	if d.detections != nil {
		return d.detections, nil
	}
	out := make([]*core.Detection, 0, len(d.detectors))
	for _, det := range d.detectors {
		dn, err := det.Detect(d.Analysis.Source())
		if err != nil {
			return nil, fmt.Errorf("eval: detector %s: %w", det.Name(), err)
		}
		out = append(out, dn)
	}
	d.detections = out
	return out, nil
}

// Detect returns the paper pipeline's full stage-by-stage outcome from
// the day's detections.
func (d *DayEval) Detect() (*core.Result, error) {
	detections, err := d.Detections()
	if err != nil {
		return nil, err
	}
	for _, dn := range detections {
		if dn.Paper != nil {
			return dn.Paper, nil
		}
	}
	return nil, fmt.Errorf("eval: the day's detectors exclude the paper pipeline (%s)", core.PaperName)
}

// Plotters returns all bot-carrying hosts.
func (d *DayEval) Plotters() core.HostSet { return d.Storm.Union(d.Nugache) }

// Overlay builds a DayEval: assign the traces' bots to random active
// hosts, merge, label Traders from payloads, and extract the day's
// features in one batch pass. The day is scored with the paper pipeline
// at cfg.
func Overlay(day *scenario.Day, storm, nugache overlay.Trace, seed int64, cfg core.Config) (*DayEval, error) {
	paper, err := core.NewPaperDetector(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ov, err := overlay.Overlay(rng, day.Records, day.Window, synth.IsInternal, storm, nugache)
	if err != nil {
		return nil, fmt.Errorf("eval: overlaying day: %w", err)
	}
	d := &DayEval{
		Day:       day,
		Records:   ov.Records,
		Storm:     core.HostSet{},
		Nugache:   core.HostSet{},
		Traders:   core.HostSet{},
		BotFlows:  ov.BotFlows,
		detectors: []core.Detector{paper},
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
	if d.Analysis, err = core.NewAnalysis(d.Records, synth.IsInternal, cfg); err != nil {
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
