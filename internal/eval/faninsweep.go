package eval

import (
	"fmt"

	"plotters/internal/community"
)

// FanInPoint is one operating point of the community-graph sweep: the
// edge threshold and popularity cap it ran with, the resulting graph
// size, and the detection rates accumulated across every suite day.
type FanInPoint struct {
	// MinSharedContacts and MaxFanIn are the GraphConfig knobs swept.
	MinSharedContacts int
	MaxFanIn          int
	// Edges totals the mutual-contact edges built across all days — the
	// cost side of the operating point (pair counting is quadratic in
	// per-destination fan-in).
	Edges int
	// Rates scores the flagged hosts against the bot-carrying ground
	// truth, accumulated across days.
	Rates Rates
}

// FanInSweep runs the community detector over every suite day at each
// point of a MinSharedContacts × MaxFanIn grid and scores it against the
// bot-carrying ground truth, yielding the ROC surface behind the
// detector's two structural knobs: MinSharedContacts trades recall for
// precision (a higher bar keeps only strongly-overlapping pairs), while
// MaxFanIn bounds both the popular-service noise and the pair-counting
// cost. The base config supplies every other knob (community size and
// density thresholds, IDF weighting); every grid point reads the day's
// one feature set.
func (s *Suite) FanInSweep(base community.Config, minShared, maxFanIn []int) ([]FanInPoint, error) {
	if len(minShared) == 0 || len(maxFanIn) == 0 {
		return nil, fmt.Errorf("eval: fan-in sweep needs at least one value per axis")
	}
	points := make([]FanInPoint, 0, len(minShared)*len(maxFanIn))
	for _, ms := range minShared {
		for _, mf := range maxFanIn {
			points = append(points, FanInPoint{MinSharedContacts: ms, MaxFanIn: mf})
		}
	}
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		hosts := de.Analysis.Hosts()
		for p := range points {
			cfg := base
			cfg.Graph.MinSharedContacts = points[p].MinSharedContacts
			cfg.Graph.MaxFanIn = points[p].MaxFanIn
			det, err := community.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("eval: fan-in sweep point (%d,%d): %w",
					points[p].MinSharedContacts, points[p].MaxFanIn, err)
			}
			dn, err := det.Detect(de.Analysis.Source())
			if err != nil {
				return nil, fmt.Errorf("eval: fan-in sweep day %d point (%d,%d): %w",
					i, points[p].MinSharedContacts, points[p].MaxFanIn, err)
			}
			points[p].Edges += dn.Community.GraphEdges
			points[p].Rates.Add(de.Tally(dn.Suspects, hosts).Overall())
		}
	}
	return points, nil
}
