package campaign

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/eval"
	"plotters/internal/flow"
	"plotters/internal/overlay"
	"plotters/internal/synth/scenario"
)

// Config parameterizes one campaign run. Everything is derived from Seed:
// the same configuration reproduces the same Report bit for bit.
type Config struct {
	// Seed drives the dataset, the overlays, and every countermeasure's
	// randomness.
	Seed int64
	// Days is the number of collection days per world.
	Days int
	// Scale sizes each world's campus.
	Scale Scale
	// Worlds names the world presets to sweep (see WorldNames).
	Worlds []string
	// Countermeasures is the grid's countermeasure axis.
	Countermeasures []Countermeasure
	// Intensities is the grid's intensity axis, ascending in [0, 1].
	// The no-countermeasure baseline row is always measured separately.
	Intensities []float64
	// Pipeline configures the paper detector.
	Pipeline core.Config
	// VoteK is the ensemble vote threshold (0 = majority).
	VoteK int
	// Progress, when non-nil, receives one line per completed stage.
	Progress func(format string, args ...any)
}

// DefaultConfig returns the standard sweep: every world and
// countermeasure at small scale over a short intensity grid.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Days:            2,
		Scale:           ScaleSmall,
		Worlds:          WorldNames(),
		Countermeasures: DefaultCountermeasures(),
		Intensities:     []float64{0.25, 0.5, 1},
		Pipeline:        core.DefaultConfig(),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Days <= 0 {
		return fmt.Errorf("campaign: days must be positive, got %d", c.Days)
	}
	if len(c.Worlds) == 0 {
		return fmt.Errorf("campaign: no worlds configured")
	}
	if len(c.Countermeasures) == 0 {
		return fmt.Errorf("campaign: no countermeasures configured")
	}
	prev := 0.0
	for _, p := range c.Intensities {
		if err := checkIntensity(p); err != nil {
			return err
		}
		if p <= prev {
			return fmt.Errorf("campaign: intensities must be strictly ascending and positive, got %v", c.Intensities)
		}
		prev = p
	}
	return c.Pipeline.Validate()
}

// Score is one detector's (or combiner's) outcome over every day of one
// world at one grid point, accumulated as exact counts so the report is
// reproducible bit for bit.
type Score struct {
	// Name is the detector or combiner ("union", "intersection",
	// "vote-k") name.
	Name string `json:"name"`
	// Rates accumulates flagged/true counts over the monitored hosts.
	Rates eval.Rates `json:"rates"`
	// StormTP/StormBots and NugacheTP/NugacheBots split detection by
	// botnet.
	StormTP     int `json:"storm_tp"`
	StormBots   int `json:"storm_bots"`
	NugacheTP   int `json:"nugache_tp"`
	NugacheBots int `json:"nugache_bots"`
}

// StormTPR returns the Storm detection rate.
func (s Score) StormTPR() float64 {
	if s.StormBots == 0 {
		return 0
	}
	return float64(s.StormTP) / float64(s.StormBots)
}

// NugacheTPR returns the Nugache detection rate.
func (s Score) NugacheTPR() float64 {
	if s.NugacheBots == 0 {
		return 0
	}
	return float64(s.NugacheTP) / float64(s.NugacheBots)
}

// FrontierPoint is one grid point: a countermeasure at an intensity, its
// cost, and how every detector and combiner scored against it.
type FrontierPoint struct {
	Countermeasure string  `json:"countermeasure"`
	Intensity      float64 `json:"intensity"`
	Cost           Cost    `json:"cost"`
	Scores         []Score `json:"scores"`
}

// WorldResult is one world's sweep outcome.
type WorldResult struct {
	// Name is the world preset name.
	Name string `json:"world"`
	// Records and Hosts size day 0 (pre-overlay records, monitored
	// hosts).
	Records int `json:"records"`
	Hosts   int `json:"hosts"`
	// Roles counts day 0's enriched-world hosts by role.
	Roles map[string]int `json:"roles,omitempty"`
	// VolTarget is the baseline day 0's τ_vol, what padding aims for.
	VolTarget float64 `json:"vol_target"`
	// Baseline scores the untransformed overlay — the no-countermeasure
	// row, comparable against the seed goldens.
	Baseline []Score `json:"baseline"`
	// Day0Suspects maps each detector to its sorted day-0 baseline
	// suspect list, pinning the exact detection outcome.
	Day0Suspects map[string][]string `json:"day0_suspects"`
	// Frontier holds one point per countermeasure × intensity, in grid
	// order.
	Frontier []FrontierPoint `json:"frontier"`
}

// Report is the campaign's full outcome.
type Report struct {
	Seed        int64         `json:"seed"`
	Days        int           `json:"days"`
	Scale       string        `json:"scale"`
	VoteK       int           `json:"vote_k"`
	Detectors   []string      `json:"detectors"`
	Intensities []float64     `json:"intensities"`
	Worlds      []WorldResult `json:"worlds"`
}

// Run executes the campaign: per world, synthesize the dataset once,
// score the untransformed baseline, then sweep every countermeasure ×
// intensity against the detector ensemble.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	worlds, err := Worlds(cfg.Worlds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	// The campaign ensemble: the paper pipeline plus the community
	// detector.
	ccfg := community.DefaultConfig()
	ccfg.Metrics = cfg.Pipeline.Metrics
	detectors, err := eval.ParseDetectors(core.PaperName+","+community.Name, cfg.Pipeline, ccfg)
	if err != nil {
		return nil, err
	}
	voteK := cfg.VoteK
	if voteK < 1 {
		voteK = len(detectors)/2 + 1
	}
	rep := &Report{
		Seed:        cfg.Seed,
		Days:        cfg.Days,
		Scale:       string(cfg.Scale),
		VoteK:       voteK,
		Intensities: cfg.Intensities,
	}
	for _, det := range detectors {
		rep.Detectors = append(rep.Detectors, det.Name())
	}
	for _, w := range worlds {
		wr, err := runWorld(cfg, w, detectors, voteK, progress)
		if err != nil {
			return nil, fmt.Errorf("campaign: world %s: %w", w.Name, err)
		}
		rep.Worlds = append(rep.Worlds, *wr)
	}
	return rep, nil
}

// runWorld sweeps one world.
func runWorld(cfg Config, w World, detectors []core.Detector, voteK int, progress func(string, ...any)) (*WorldResult, error) {
	progress("world %s: synthesizing %d day(s) at scale %s", w.Name, cfg.Days, cfg.Scale)
	dcfg := scenario.DefaultDatasetConfig(cfg.Seed)
	dcfg.Days = cfg.Days
	dcfg.Storm.Bots, dcfg.Nugache.Bots = honeynetBots(cfg.Scale)
	tmpl := w.Template
	tmpl.Day = dcfg.FirstDay
	tmpl.Seed = cfg.Seed
	dcfg.DayTemplate = tmpl
	ds, err := scenario.GenerateDataset(dcfg)
	if err != nil {
		return nil, err
	}

	wr := &WorldResult{
		Name:    w.Name,
		Records: len(ds.Days[0].Records),
		Hosts:   len(ds.Days[0].CampusHosts),
		Roles:   ds.Days[0].RoleCounts(),
	}
	if len(wr.Roles) == 0 {
		wr.Roles = nil
	}

	// Baseline: the untransformed overlay, same per-day seeds as the
	// evaluation suite (suite seed = dataset seed + 1), so on the
	// baseline world this row reproduces the seed goldens.
	suite, err := eval.NewSuiteDetectors(ds, cfg.Pipeline, cfg.Seed+1, detectors)
	if err != nil {
		return nil, err
	}
	progress("world %s: baseline detection", w.Name)
	baseline, day0, err := sweepPoint(suite, ds, ds.Storm.Records, ds.Nugache.Records, detectors, voteK)
	if err != nil {
		return nil, err
	}
	wr.Baseline = baseline
	detections, err := day0.Detections()
	if err != nil {
		return nil, err
	}
	wr.Day0Suspects = make(map[string][]string, len(detections))
	for _, d := range detections {
		wr.Day0Suspects[d.Detector] = hostStrings(d.Suspects)
	}

	// τ_vol from the baseline day-0 paper detection: what volume padding
	// pads toward.
	res, err := day0.Detect()
	if err != nil {
		return nil, err
	}
	env := Env{FreshPool: freshPool(256), VolTarget: res.Volume.Threshold}
	wr.VolTarget = env.VolTarget

	for _, cm := range cfg.Countermeasures {
		// Common random numbers: the rng seed depends on (seed, world,
		// countermeasure, trace) but NOT on intensity, and every
		// countermeasure consumes the same draw sequence at every
		// intensity — so each transform's rewrite set grows with
		// intensity and cost is deterministically monotone.
		stormSeed := subSeed(cfg.Seed, w.Name, cm.Name(), "storm")
		nugSeed := subSeed(cfg.Seed, w.Name, cm.Name(), "nugache")
		for _, p := range cfg.Intensities {
			stormT, costS, err := cm.Apply(ds.Storm.Records, p, env, rand.New(rand.NewSource(stormSeed)))
			if err != nil {
				return nil, fmt.Errorf("%s at %v: %w", cm.Name(), p, err)
			}
			nugT, costN, err := cm.Apply(ds.Nugache.Records, p, env, rand.New(rand.NewSource(nugSeed)))
			if err != nil {
				return nil, fmt.Errorf("%s at %v: %w", cm.Name(), p, err)
			}
			scores, _, err := sweepPoint(suite, ds, stormT, nugT, detectors, voteK)
			if err != nil {
				return nil, fmt.Errorf("%s at %v: %w", cm.Name(), p, err)
			}
			wr.Frontier = append(wr.Frontier, FrontierPoint{
				Countermeasure: cm.Name(),
				Intensity:      p,
				Cost:           costS.Add(costN),
				Scores:         scores,
			})
			progress("world %s: %s intensity %.2f done", w.Name, cm.Name(), p)
		}
	}
	return wr, nil
}

// sweepPoint overlays (possibly transformed) honeynet traces onto every
// day of the suite, runs the detector ensemble, and accumulates one Score
// per detector plus the union/intersection/vote combiners. It returns day
// 0 too, its detections run.
func sweepPoint(suite *eval.Suite, ds *scenario.Dataset, stormRecs, nugRecs []flow.Record, detectors []core.Detector, voteK int) ([]Score, *eval.DayEval, error) {
	scores := make([]Score, len(detectors)+3)
	for i, det := range detectors {
		scores[i].Name = det.Name()
	}
	scores[len(detectors)].Name = "union"
	scores[len(detectors)+1].Name = "intersection"
	scores[len(detectors)+2].Name = fmt.Sprintf("vote-%d", voteK)

	var day0 *eval.DayEval
	storm := overlay.Trace{Label: eval.LabelStorm, Records: stormRecs, Bots: ds.Storm.Bots}
	nugache := overlay.Trace{Label: eval.LabelNugache, Records: nugRecs, Bots: ds.Nugache.Bots}
	err := suite.Sweep(storm, nugache, 0, detectors, func(i int, de *eval.DayEval) error {
		detections, err := de.Detections()
		if err != nil {
			return err
		}
		if i == 0 {
			day0 = de
		}
		hosts := de.Analysis.Hosts()
		for j, set := range eval.EnsembleSets(detections, voteK) {
			t := de.Tally(set, hosts)
			scores[j].Rates.Add(t.Overall())
			scores[j].StormTP += t.Kept.Storm
			scores[j].StormBots += t.Input.Storm
			scores[j].NugacheTP += t.Kept.Nugache
			scores[j].NugacheBots += t.Input.Nugache
		}
		return nil
	})
	return scores, day0, err
}

// freshPool fabricates n public decoy addresses (11.0.0.0/8, outside the
// campus and honeynet ranges) for churn mimicry.
func freshPool(n int) []flow.IP {
	pool := make([]flow.IP, n)
	for i := range pool {
		pool[i] = flow.IP(11<<24 | i + 1)
	}
	return pool
}

// hostStrings renders a host set in numeric IP order, matching the
// repo-level goldens' Sorted() rendering.
func hostStrings(set core.HostSet) []string {
	hosts := set.Sorted()
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.String()
	}
	return out
}

// subSeed hashes the seed with the given labels into a child seed.
func subSeed(seed int64, labels ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return int64(h.Sum64() & (1<<63 - 1))
}

// CheckMonotone verifies that within every world each countermeasure's
// cost is non-decreasing along the intensity grid — the frontier
// property the CI smoke gates on (detection rates are statistical and
// are not required to be monotone; costs are deterministic and are).
func (r *Report) CheckMonotone() error {
	for _, w := range r.Worlds {
		last := make(map[string]*FrontierPoint)
		for i := range w.Frontier {
			p := &w.Frontier[i]
			if prev := last[p.Countermeasure]; prev != nil {
				if p.Intensity <= prev.Intensity {
					return fmt.Errorf("campaign: world %s %s: grid not ascending (%v after %v)",
						w.Name, p.Countermeasure, p.Intensity, prev.Intensity)
				}
				if !p.Cost.AtLeast(prev.Cost) {
					return fmt.Errorf("campaign: world %s %s: cost not monotone (intensity %v cost %+v < intensity %v cost %+v)",
						w.Name, p.Countermeasure, p.Intensity, p.Cost, prev.Intensity, prev.Cost)
				}
			}
			last[p.Countermeasure] = p
		}
	}
	return nil
}
