package eval

import (
	"fmt"
	"strings"

	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/flow"
)

// ParseDetectors parses a comma-separated detector list — the tools'
// -detectors flag — into instances, in the order listed: the paper
// pipeline at cfg, the community detector at ccfg.
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

// EnsembleSets returns the sets an ensemble is scored on: each
// detection's suspects in detection order, then their union,
// intersection and k-of-n vote.
func EnsembleSets(detections []*core.Detection, k int) []core.HostSet {
	sets := make([]core.HostSet, 0, len(detections)+3)
	for _, d := range detections {
		sets = append(sets, d.Suspects)
	}
	return append(sets, Union(detections), Intersection(detections), Vote(detections, k))
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
	n := len(s.detectors)
	if voteK < 1 {
		voteK = n/2 + 1
	}
	rep := &EnsembleReport{VoteK: voteK, PerDetector: make([]Rates, n)}
	for _, d := range s.detectors {
		rep.Detectors = append(rep.Detectors, d.Name())
	}
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		detections, err := de.Detections()
		if err != nil {
			return nil, err
		}
		hosts := de.Analysis.Hosts()
		r := make([]Rates, 0, n+3)
		for _, set := range EnsembleSets(detections, voteK) {
			r = append(r, de.Tally(set, hosts).Overall())
		}
		for j := range rep.PerDetector {
			rep.PerDetector[j].Add(r[j])
		}
		rep.Union.Add(r[n])
		rep.Intersection.Add(r[n+1])
		rep.Vote.Add(r[n+2])
		rep.Days = append(rep.Days, EnsembleDay{Day: i, PerDetector: r[:n], Union: r[n], Intersection: r[n+1], Vote: r[n+2]})
	}
	return rep, nil
}
