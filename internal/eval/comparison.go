package eval

import (
	"plotters/internal/baseline"
	"plotters/internal/core"
	"plotters/internal/synth"
)

// DetectorOutcome scores one detector on the overlaid corpus, split by
// ground-truth class so the Trader/Plotter separation (or lack of it) is
// visible.
type DetectorOutcome struct {
	Name string
	// StormTPR / NugacheTPR: detected fraction of bot-carrying hosts.
	StormTPR   float64
	NugacheTPR float64
	// TraderRate: fraction of ground-truth Traders flagged. For a
	// botnet detector this is a false-positive rate; for a generic P2P
	// identifier it is expected to be high — which is precisely the
	// paper's point.
	TraderRate float64
	// CampusRate: fraction of plain background hosts flagged.
	CampusRate float64
}

// CompareBaselines runs FindPlotters and the §II baseline detectors over
// every overlaid day and tabulates per-class detection rates. It
// reproduces the paper's motivating argument: generic P2P identifiers
// flag Traders and Plotters alike, persistence-based C&C detection
// misses P2P bots, and only FindPlotters separates the two populations.
func (s *Suite) CompareBaselines() ([]DetectorOutcome, error) {
	names := []string{"findplotters", "tdg", "persistence", "failedconn"}
	tally := make([]Tally, len(names))
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		res, err := de.Detect()
		if err != nil {
			return nil, err
		}
		tdg, err := baseline.TDG(de.Records, synth.IsInternal, baseline.DefaultTDGConfig())
		if err != nil {
			return nil, err
		}
		pers, err := baseline.Persistence(de.Records, de.Day.Window, synth.IsInternal, baseline.DefaultPersistenceConfig())
		if err != nil {
			return nil, err
		}
		failed, err := baseline.FailedConn(de.Records, synth.IsInternal, baseline.DefaultFailedConnConfig())
		if err != nil {
			return nil, err
		}
		hosts := de.Analysis.Hosts()
		for j, set := range []core.HostSet{res.Suspects, core.HostSet(tdg.P2PHosts), core.HostSet(pers.Flagged), core.HostSet(failed)} {
			tally[j].Add(de.Tally(set, hosts))
		}
	}

	out := make([]DetectorOutcome, 0, len(names))
	for j, name := range names {
		t := tally[j]
		out = append(out, DetectorOutcome{
			Name:       name,
			StormTPR:   t.Storm().TPR(),
			NugacheTPR: t.Nugache().TPR(),
			TraderRate: frac(t.Kept.Traders, t.Input.Traders),
			CampusRate: frac(t.Kept.Others, t.Input.Others),
		})
	}
	return out, nil
}
