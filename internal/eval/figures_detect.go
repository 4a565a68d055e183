package eval

import (
	"fmt"
	"math/rand"
	"time"

	"plotters/internal/core"
	"plotters/internal/evasion"
	"plotters/internal/flow"
	"plotters/internal/overlay"
	"plotters/internal/stats"
)

// This file regenerates the paper's detection and evasion figures
// (Figures 6–12): per-test ROC curves, the stage-by-stage FindPlotters
// refinement, the surviving-Nugache flow-count CDF, and the evasion-cost
// analyses.

// ROCPoint is one threshold setting of one test, averaged over all days.
// Rates are relative to the test's input set, as in the paper.
type ROCPoint struct {
	Percentile float64
	Storm      Rates
	Nugache    Rates
	// FPR is flagged non-Plotters over non-Plotters in the input.
	FPR float64
}

// rocSweep runs one test at each percentile of the sweep across all days.
func (s *Suite) rocSweep(run func(de *DayEval, pct float64) (core.HostSet, core.HostSet, error)) ([]ROCPoint, error) {
	points := make([]ROCPoint, 0, len(PercentileSweep))
	for _, pct := range PercentileSweep {
		var t Tally
		for i := 0; i < s.Days(); i++ {
			de, err := s.Day(i)
			if err != nil {
				return nil, err
			}
			kept, input, err := run(de, pct)
			if err != nil {
				return nil, err
			}
			t.Add(de.Tally(kept, input))
		}
		points = append(points, ROCPoint{Percentile: pct, Storm: t.Storm(), Nugache: t.Nugache(), FPR: t.Overall().FPR()})
	}
	return points, nil
}

// Figure6 reproduces Figure 6: the ROC of the volume test θ_vol over the
// reduced host set, τ_vol swept across the {10,30,50,70,90}th percentiles
// of per-host average flow size, averaged over all days.
func (s *Suite) Figure6() ([]ROCPoint, error) {
	return s.rocSweep(func(de *DayEval, pct float64) (core.HostSet, core.HostSet, error) {
		red, err := de.Analysis.Reduce()
		if err != nil {
			return nil, nil, err
		}
		res, err := de.Analysis.VolumeTest(red.Kept, pct)
		if err != nil {
			return nil, nil, err
		}
		return res.Kept, red.Kept, nil
	})
}

// Figure7 reproduces Figure 7: the ROC of the churn test θ_churn, swept
// the same way.
func (s *Suite) Figure7() ([]ROCPoint, error) {
	return s.rocSweep(func(de *DayEval, pct float64) (core.HostSet, core.HostSet, error) {
		red, err := de.Analysis.Reduce()
		if err != nil {
			return nil, nil, err
		}
		res, err := de.Analysis.ChurnTest(red.Kept, pct)
		if err != nil {
			return nil, nil, err
		}
		return res.Kept, red.Kept, nil
	})
}

// Figure8 reproduces Figure 8: the ROC of the human-vs-machine test θ_hm
// over S_vol ∪ S_churn (both at their 50th-percentile operating point),
// with τ_hm swept across percentiles of the cluster diameters.
func (s *Suite) Figure8() ([]ROCPoint, error) {
	return s.rocSweep(func(de *DayEval, pct float64) (core.HostSet, core.HostSet, error) {
		red, err := de.Analysis.Reduce()
		if err != nil {
			return nil, nil, err
		}
		vol, err := de.Analysis.VolumeTest(red.Kept, s.cfg.VolPercentile)
		if err != nil {
			return nil, nil, err
		}
		churn, err := de.Analysis.ChurnTest(red.Kept, s.cfg.ChurnPercentile)
		if err != nil {
			return nil, nil, err
		}
		input := vol.Kept.Union(churn.Kept)
		hm, err := de.Analysis.HMTest(input, pct)
		if err != nil {
			return nil, nil, err
		}
		return hm.Kept, input, nil
	})
}

// StageResult is one pipeline stage's surviving-host composition,
// averaged (as totals) over all days.
type StageResult struct {
	Name   string
	Counts StageCounts
}

// Fig9Result is the stage-by-stage refinement of Figure 9 plus the
// headline rates.
type Fig9Result struct {
	Days   int
	Stages []StageResult
	// StormTPR and NugacheTPR are detection rates over all days.
	StormTPR   float64
	NugacheTPR float64
	// FPRate is flagged non-Plotters over all analyzed internal hosts.
	FPRate float64
	// TradersRemaining is the fraction of ground-truth Traders that
	// survive the full pipeline.
	TradersRemaining float64
	// TraderShareOfOutput is the fraction of the final output that is
	// Traders.
	TraderShareOfOutput float64
}

// Figure9 reproduces Figure 9: apply the full FindPlotters pipeline and
// report the composition after each stage, plus the paper's headline
// numbers (87.50% Storm TP, 30% Nugache TP, 0.81% FP, 5.40% of Traders
// remaining / 7.11% of output).
func (s *Suite) Figure9() (*Fig9Result, error) {
	out := &Fig9Result{Days: s.Days()}
	stageTotals := make([]StageCounts, 5)
	stageNames := []string{"all-hosts", "reduction", "vol", "churn", "hm"}
	var final Tally
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		res, err := de.Detect()
		if err != nil {
			return nil, err
		}
		hosts := de.Analysis.Hosts()
		for j, set := range []core.HostSet{hosts, res.Reduction.Kept, res.Volume.Kept, res.Churn.Kept, res.Suspects} {
			stageTotals[j].Add(de.Tally(set, hosts).Kept)
		}
		final.Add(de.Tally(res.Suspects, hosts))
	}
	for i, name := range stageNames {
		out.Stages = append(out.Stages, StageResult{Name: name, Counts: stageTotals[i]})
	}
	out.StormTPR = final.Storm().TPR()
	out.NugacheTPR = final.Nugache().TPR()
	out.FPRate = final.Overall().FPR()
	out.TradersRemaining = frac(final.Kept.Traders, final.Input.Traders)
	out.TraderShareOfOutput = frac(final.Kept.Traders, final.Kept.Total())
	return out, nil
}

// Fig10Result is the Figure 10 data: for each pipeline stage, the CDF of
// in-window bot flow counts of the Nugache bots that survive it,
// accumulated over all days.
type Fig10Result struct {
	Stages map[string][]stats.CDFPoint
}

// Figure10 reproduces Figure 10: each test preferentially sheds the
// less-communicative Nugache bots, so the flow-count CDF of survivors
// shifts right after every stage.
func (s *Suite) Figure10() (*Fig10Result, error) {
	counts := map[string][]float64{}
	collect := func(stage string, de *DayEval, kept core.HostSet) {
		for h := range kept {
			if de.Nugache[h] {
				counts[stage] = append(counts[stage], float64(de.BotFlows[h]))
			}
		}
	}
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		res, err := de.Detect()
		if err != nil {
			return nil, err
		}
		collect("all", de, de.Nugache)
		collect("reduction", de, res.Reduction.Kept)
		collect("vol∪churn", de, res.Volume.Kept.Union(res.Churn.Kept))
		collect("hm", de, res.Suspects)
	}
	out := &Fig10Result{Stages: make(map[string][]stats.CDFPoint, len(counts))}
	for stage, vals := range counts {
		if len(vals) == 0 {
			out.Stages[stage] = nil
			continue
		}
		ecdf, err := stats.NewECDF(vals)
		if err != nil {
			return nil, fmt.Errorf("eval: figure 10 %s: %w", stage, err)
		}
		out.Stages[stage] = ecdf.Sampled(60)
	}
	return out, nil
}

// Fig11Day is one day's evasion-threshold comparison for Figure 11.
type Fig11Day struct {
	Day int
	// VolThreshold is τ_vol; StormVolMedian/NugacheVolMedian are the
	// median per-bot-host average flow sizes once overlaid.
	VolThreshold     float64
	StormVolMedian   float64
	NugacheVolMedian float64
	// StormVolFactor/NugacheVolFactor are the multiplicative volume
	// increases the median bot needs to evade θ_vol (paper: ≈5, ≈1.3).
	StormVolFactor   float64
	NugacheVolFactor float64
	// ChurnThreshold is τ_churn with the bots' churn medians.
	ChurnThreshold     float64
	StormChurnMedian   float64
	NugacheChurnMedian float64
	// ChurnFactor90 is the factor by which the median Storm bot must
	// increase its new-IP count to reach a 90% new-IP fraction
	// (paper: ≥1.5).
	StormChurnFactor90   float64
	NugacheChurnFactor90 float64
}

// Figure11 reproduces Figure 11(a,b): per-day detection thresholds
// compared against the overlaid Plotters' observed feature medians, and
// the derived evasion factors.
func (s *Suite) Figure11() ([]Fig11Day, error) {
	out := make([]Fig11Day, 0, s.Days())
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		red, err := de.Analysis.Reduce()
		if err != nil {
			return nil, err
		}
		vol, err := de.Analysis.VolumeTest(red.Kept, s.cfg.VolPercentile)
		if err != nil {
			return nil, err
		}
		churn, err := de.Analysis.ChurnTest(red.Kept, s.cfg.ChurnPercentile)
		if err != nil {
			return nil, err
		}
		day := Fig11Day{Day: i, VolThreshold: vol.Threshold, ChurnThreshold: churn.Threshold}

		feats := de.Analysis.Features()
		medianOf := func(set core.HostSet, get func(*flow.HostFeatures) float64) float64 {
			var vals []float64
			for h := range set {
				if f := feats[h]; f != nil {
					vals = append(vals, get(f))
				}
			}
			med, err := stats.Median(vals)
			if err != nil {
				return 0
			}
			return med
		}
		day.StormVolMedian = medianOf(de.Storm, (*flow.HostFeatures).AvgBytesPerFlow)
		day.NugacheVolMedian = medianOf(de.Nugache, (*flow.HostFeatures).AvgBytesPerFlow)
		day.StormVolFactor = evasion.RequiredVolumeFactor(day.StormVolMedian, day.VolThreshold)
		day.NugacheVolFactor = evasion.RequiredVolumeFactor(day.NugacheVolMedian, day.VolThreshold)
		day.StormChurnMedian = medianOf(de.Storm, (*flow.HostFeatures).NewPeerFraction)
		day.NugacheChurnMedian = medianOf(de.Nugache, (*flow.HostFeatures).NewPeerFraction)

		factorFor := func(set core.HostSet) float64 {
			var factors []float64
			for h := range set {
				if f := feats[h]; f != nil && f.NewPeers > 0 {
					factors = append(factors, evasion.RequiredChurnFactor(f.NewPeers, f.Peers, 0.9))
				}
			}
			med, err := stats.Median(factors)
			if err != nil {
				return 0
			}
			return med
		}
		day.StormChurnFactor90 = factorFor(de.Storm)
		day.NugacheChurnFactor90 = factorFor(de.Nugache)
		out = append(out, day)
	}
	return out, nil
}

// Fig12Point is one jitter magnitude's outcome for Figure 12.
type Fig12Point struct {
	Delay      time.Duration
	StormTPR   float64
	NugacheTPR float64
}

// DefaultJitterSweep is the §VI delay sweep (30 seconds to 3 hours).
var DefaultJitterSweep = []time.Duration{
	30 * time.Second,
	time.Minute,
	2 * time.Minute,
	5 * time.Minute,
	10 * time.Minute,
	30 * time.Minute,
	time.Hour,
	2 * time.Hour,
	3 * time.Hour,
}

// Figure12 reproduces Figure 12: Plotters add a uniform ±d delay before
// every connection to a previously contacted peer; the detection rate of
// the full pipeline decays as d grows into the minutes range. maxDays
// bounds the evaluation days used per delay (0 = all days).
func (s *Suite) Figure12(delays []time.Duration, maxDays int) ([]Fig12Point, error) {
	if len(delays) == 0 {
		delays = DefaultJitterSweep
	}
	out := make([]Fig12Point, 0, len(delays))
	for di, d := range delays {
		rng := rand.New(rand.NewSource(s.seed + int64(di)*31337))
		stormRecs, err := evasion.JitterRepeatContacts(s.ds.Storm.Records, d, rng)
		if err != nil {
			return nil, err
		}
		nugRecs, err := evasion.JitterRepeatContacts(s.ds.Nugache.Records, d, rng)
		if err != nil {
			return nil, err
		}
		stormTrace := overlay.Trace{Label: LabelStorm, Records: stormRecs, Bots: s.ds.Storm.Bots}
		nugTrace := overlay.Trace{Label: LabelNugache, Records: nugRecs, Bots: s.ds.Nugache.Bots}

		var t Tally
		err = s.Sweep(stormTrace, nugTrace, maxDays, nil, func(_ int, de *DayEval) error {
			res, err := de.Detect()
			if err == nil {
				t.Add(de.Tally(res.Suspects, de.Analysis.Hosts()))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig12Point{Delay: d, StormTPR: t.Storm().TPR(), NugacheTPR: t.Nugache().TPR()})
	}
	return out, nil
}
