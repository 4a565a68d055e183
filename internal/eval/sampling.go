package eval

import (
	"fmt"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/ingest"
	"plotters/internal/synth"
)

// SamplingPoint is one row of the sampling-vs-detection sweep: the
// pipeline outcome when the ingest stage keeps only 1 flow in N.
type SamplingPoint struct {
	// N is the sampling divisor (1 = every flow, the unsampled
	// baseline).
	N uint64
	// Records and TotalRecords count the flows that survived sampling
	// and the flows offered, summed across all days, so KeptFraction
	// reports the measured (not nominal) rate.
	Records      int
	TotalRecords int
	// Storm, Nugache, and Overall aggregate detection rates across
	// days. The input set is always the *unsampled* day's analyzed
	// hosts: a bot whose every flow was sampled away counts as a miss,
	// so recall reflects the true cost of sampling rather than scoring
	// only the hosts that happened to survive.
	Storm   Rates
	Nugache Rates
	Overall Rates
}

// KeptFraction returns the measured fraction of flows that survived
// sampling.
func (p SamplingPoint) KeptFraction() float64 {
	if p.TotalRecords == 0 {
		return 0
	}
	return float64(p.Records) / float64(p.TotalRecords)
}

// SamplingSweep measures detection quality under the ingest subsystem's
// deterministic 1-in-N flow sampling. For each rate, every day's
// overlaid records pass through an ingest.Sampler with the given seed —
// the exact component the live collector runs — then feature
// extraction and the full pipeline run on the kept subset. Scores
// accumulate across all suite days against the unsampled day's host
// set and ground truth.
//
// Rate 1 runs the sampler in its disabled configuration and must (and
// does, by the sampler's N ≤ 1 contract) reproduce the unsampled
// pipeline verbatim; it is included so the report's baseline row comes
// from the same code path as the sampled rows.
func (s *Suite) SamplingSweep(rates []uint64, seed uint64) ([]SamplingPoint, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("eval: sampling sweep needs at least one rate")
	}
	points := make([]SamplingPoint, len(rates))
	for j, n := range rates {
		points[j].N = n
	}
	for i := 0; i < s.Days(); i++ {
		de, err := s.Day(i)
		if err != nil {
			return nil, err
		}
		hosts := de.Analysis.Hosts()
		for j, n := range rates {
			sampler := ingest.Sampler{N: n, Seed: seed}
			kept := make([]flow.Record, 0, len(de.Records))
			for k := range de.Records {
				if sampler.Keep(&de.Records[k]) {
					kept = append(kept, de.Records[k])
				}
			}
			points[j].Records += len(kept)
			points[j].TotalRecords += len(de.Records)

			src := flow.ExtractFeatureSet(kept, flow.FeatureOptions{
				Hosts:        synth.IsInternal,
				NewPeerGrace: s.cfg.NewPeerGrace,
			}, flow.Window{})
			analysis, err := core.NewAnalysisFromSource(src, s.cfg)
			if err != nil {
				return nil, fmt.Errorf("eval: day %d at 1-in-%d sampling: %w", i, n, err)
			}
			res, err := analysis.FindPlotters()
			if err != nil {
				return nil, fmt.Errorf("eval: day %d at 1-in-%d sampling: %w", i, n, err)
			}
			t := de.Tally(res.Suspects, hosts)
			points[j].Storm.Add(t.Storm())
			points[j].Nugache.Add(t.Nugache())
			points[j].Overall.Add(t.Overall())
		}
	}
	return points, nil
}
