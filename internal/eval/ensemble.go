package eval

import (
	"fmt"
	"strings"

	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/flow"
)

// ParseDetectors parses a comma-separated detector list — the tools'
// -detectors flag — into instances: the paper pipeline at cfg, the
// community detector at ccfg. The paper pipeline alone returns nil,
// which every consumer (engine.Config.Detectors, NewSuiteDetectors)
// reads as its original single-detector path.
func ParseDetectors(spec string, cfg core.Config, ccfg community.Config) ([]core.Detector, error) {
	var out []core.Detector
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("-detectors lists %q twice", name)
		}
		seen[name] = true
		var det core.Detector
		var err error
		switch name {
		case core.PaperName:
			det, err = core.NewPaperDetector(cfg)
		case community.Name:
			det, err = community.New(ccfg)
		default:
			err = fmt.Errorf("unknown detector %q (have: %s, %s)", name, core.PaperName, community.Name)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, det)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-detectors lists no detectors")
	}
	if len(out) == 1 && seen[core.PaperName] {
		return nil, nil
	}
	return out, nil
}

// Ensemble combiners: set algebra over per-detector verdicts. The
// detectors see the same window through different lenses — the paper
// pipeline reads per-host behavior, the community detector reads
// cross-host structure — so their combinations trade precision against
// recall: union catches what either sees (recall), intersection keeps
// what both agree on (precision), k-of-n vote interpolates.

// Union returns the hosts flagged by at least one detection.
func Union(detections []*core.Detection) core.HostSet {
	return Vote(detections, 1)
}

// Intersection returns the hosts flagged by every detection (empty when
// there are none — no detector, no verdict).
func Intersection(detections []*core.Detection) core.HostSet {
	return Vote(detections, len(detections))
}

// Vote returns the hosts flagged by at least k of the detections. k < 1
// clamps to 1; k greater than the detector count yields the empty set
// (a bar nobody can clear), and an empty detection list always votes
// empty.
func Vote(detections []*core.Detection, k int) core.HostSet {
	if k < 1 {
		k = 1
	}
	votes := make(map[flow.IP]int)
	for _, d := range detections {
		if d == nil {
			continue
		}
		for h := range d.Suspects {
			votes[h]++
		}
	}
	out := make(core.HostSet)
	for h, n := range votes {
		if n >= k {
			out[h] = true
		}
	}
	return out
}

// EnsembleDay is one day's scores: each detector alone, then the
// combiners.
type EnsembleDay struct {
	// Day indexes the suite day the scores cover.
	Day int
	// PerDetector holds one Rates per detector, in EnsembleReport.
	// Detectors order.
	PerDetector []Rates
	// Union, Intersection, and Vote score the combined suspect sets.
	Union, Intersection, Vote Rates
}

// EnsembleReport aggregates per-detector and combined detection scores
// across every day of a suite.
type EnsembleReport struct {
	// Detectors names the scored detectors, in detection order.
	Detectors []string
	// VoteK is the vote threshold the Vote columns used.
	VoteK int
	// Days holds the per-day breakdown.
	Days []EnsembleDay
	// PerDetector, Union, Intersection, and Vote accumulate the
	// corresponding per-day rates across all days.
	PerDetector               []Rates
	Union, Intersection, Vote Rates
}

// Ensemble runs every configured detector over every day and scores
// them individually and combined (union, intersection, k-of-n vote)
// against the bot-carrying ground truth, over the full monitored host
// population. voteK < 1 means a strict majority of the detectors.
func (s *Suite) Ensemble(voteK int) (*EnsembleReport, error) {
	rep := &EnsembleReport{VoteK: voteK}
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		detections, err := de.Detections()
		if err != nil {
			return nil, err
		}
		if rep.Detectors == nil {
			for _, d := range detections {
				rep.Detectors = append(rep.Detectors, d.Detector)
			}
			if rep.VoteK < 1 {
				rep.VoteK = len(detections)/2 + 1
			}
			rep.PerDetector = make([]Rates, len(detections))
		} else if len(detections) != len(rep.Detectors) {
			return nil, fmt.Errorf("eval: day %d ran %d detectors, day 0 ran %d",
				i, len(detections), len(rep.Detectors))
		}
		input := de.Analysis.Hosts()
		truth := de.Plotters()
		day := EnsembleDay{Day: i, PerDetector: make([]Rates, len(detections))}
		for j, d := range detections {
			day.PerDetector[j] = Score(d.Suspects, input, truth)
			rep.PerDetector[j].Add(day.PerDetector[j])
		}
		day.Union = Score(Union(detections), input, truth)
		day.Intersection = Score(Intersection(detections), input, truth)
		day.Vote = Score(Vote(detections, rep.VoteK), input, truth)
		rep.Union.Add(day.Union)
		rep.Intersection.Add(day.Intersection)
		rep.Vote.Add(day.Vote)
		rep.Days = append(rep.Days, day)
	}
	return rep, nil
}
