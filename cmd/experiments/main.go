// Command experiments regenerates the data behind every figure in the
// paper's evaluation (Figures 1–3 and 5–12) from the synthesized corpus,
// printing each as a text table. See EXPERIMENTS.md for the side-by-side
// comparison against the paper's reported numbers.
//
// Usage:
//
//	experiments [-fig N[,N...]|all] [-days N] [-seed S] [-scale small|paper] [-metrics FILE]
//	experiments -sampling [-fig none] [-days N] [-seed S] [-scale small|paper]
//	experiments -campaign [-fig none] [-campaign-worlds W[,W...]] [-campaign-grid P[,P...]] [-campaign-out FILE]
//
// With -sampling, the ingest subsystem's deterministic 1-in-N flow
// sampler sweeps rates 1, 1/4, 1/16, and 1/64 over every evaluation
// day and prints precision/recall per rate — the measured detection
// cost of running the collector sampled (see EXPERIMENTS.md).
//
// With -campaign, the red-team campaign runner sweeps bot-side
// countermeasures (timer jitter, churn mimicry, volume padding, slow
// start) at the given intensity grid across synthetic worlds, scores
// each grid point against the detector ensemble (paper pipeline +
// community detector + combiners), and prints the detection-rate vs.
// evasion-cost frontier. -scale additionally accepts "tiny" for the
// campaign (the CI smoke size). See DESIGN.md §6.
//
// With -metrics, cumulative pipeline stage timings across every figure
// run are written to FILE as JSON (see EXPERIMENTS.md for how to read
// them). A θ_hm run over about a thousand clusterable hosts or more
// prunes its pairwise EMD matrix on its own (identical figures, fewer
// exact EMD evaluations); the metrics file and a stderr summary then
// carry the kernel's cumulative pair accounting across all figure runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"plotters"
	"plotters/internal/eval"
	"plotters/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// figures maps every figure number to the function printing its data.
var figures = map[int]func(io.Writer, *plotters.Suite) error{
	1:  figure1,
	2:  figure2,
	3:  figure3,
	5:  figure5,
	6:  figure6,
	7:  figure7,
	8:  figure8,
	9:  figure9,
	10: figure10,
	11: figure11,
	12: figure12,
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs      = fs.String("fig", "all", "comma-separated figure numbers (1,2,3,5..12) or 'all'")
		baselines = fs.Bool("baselines", false, "also compare against the §II baseline detectors (TDG, persistence, failed-connections)")
		days      = fs.Int("days", 8, "evaluation days")
		seed      = fs.Int64("seed", 42, "master random seed")
		scale     = fs.String("scale", "paper", "dataset scale: small (fast) or paper")
		parallel  = fs.Int("parallelism", 0, "worker count for the θ_hm distance matrix (0 = all CPUs, 1 = sequential)")
		metricsTo = fs.String("metrics", "", "write cumulative pipeline stage timings to this file as JSON")
		detectors = fs.String("detectors", "findplotters", "comma-separated detectors run per day: findplotters, community. More than one appends the ensemble precision/recall table")
		voteK     = fs.Int("vote-k", 0, "k for the ensemble k-of-n vote combiner (0 = majority)")
		commIDF   = fs.Bool("community-idf", false, "weight community-graph edges by destination rarity (IDF) instead of raw shared-contact counts")
		fanin     = fs.Bool("fanin-sweep", false, "sweep the community graph's MinSharedContacts × MaxFanIn grid and print the ROC table (use -fig none to run the sweep alone)")
		sampling  = fs.Bool("sampling", false, "sweep the ingest stage's deterministic 1-in-N flow sampling (N = 1,4,16,64) and print precision/recall per rate (use -fig none to run the sweep alone)")
		camp      = fs.Bool("campaign", false, "run the red-team campaign: sweep countermeasures × synthetic worlds against the detector ensemble and print the evasion-cost frontier (use -fig none to run the campaign alone)")
		campWorld = fs.String("campaign-worlds", "all", "comma-separated campaign world presets, or 'all'")
		campGrid  = fs.String("campaign-grid", "0.25,0.5,1", "comma-separated ascending countermeasure intensities in (0,1]")
		campOut   = fs.String("campaign-out", "", "write the campaign report to this file as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	want, err := parseFigs(*figs)
	if err != nil {
		return err
	}

	if *camp {
		if err := runCampaign(stdout, stderr, *seed, *days, *scale, *campWorld, *campGrid, *campOut, *voteK, *parallel); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		// -fig none -campaign runs the campaign alone.
		if len(want) == 0 && !*baselines && !*fanin && !*sampling {
			return nil
		}
	}

	pipeCfg := plotters.DefaultConfig()
	pipeCfg.Parallelism = *parallel
	var reg *plotters.Metrics
	if *metricsTo != "" {
		reg = plotters.NewMetrics()
		pipeCfg.Metrics = reg
	}
	commCfg := plotters.DefaultCommunityConfig()
	commCfg.Metrics = reg
	commCfg.Graph.IDFWeights = *commIDF
	dets, err := plotters.ParseDetectors(*detectors, pipeCfg, commCfg)
	if err != nil {
		return err
	}
	cfg := plotters.DefaultDatasetConfig(*seed)
	cfg.Days = *days
	if *scale == "small" {
		cfg.DayTemplate.CampusHosts = 150
		cfg.DayTemplate.Gnutella = 5
		cfg.DayTemplate.EMule = 5
		cfg.DayTemplate.BitTorrent = 8
		cfg.DayTemplate.PeerNetworkNodes = 1200
	}
	fmt.Fprintf(stderr, "synthesizing corpus (%d days, scale=%s)...\n", cfg.Days, *scale)
	ds, err := plotters.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	suite, err := plotters.NewSuiteDetectors(ds, pipeCfg, *seed+1, dets)
	if err != nil {
		return err
	}

	for _, f := range want {
		fmt.Fprintf(stderr, "running figure %d...\n", f)
		if err := figures[f](stdout, suite); err != nil {
			return fmt.Errorf("figure %d: %w", f, err)
		}
	}
	if *baselines {
		fmt.Fprintln(stderr, "running baseline comparison...")
		if err := compareBaselines(stdout, suite); err != nil {
			return fmt.Errorf("baseline comparison: %w", err)
		}
	}
	if len(dets) > 1 {
		fmt.Fprintln(stderr, "scoring detector ensemble...")
		if err := printEnsemble(stdout, suite, *voteK); err != nil {
			return fmt.Errorf("ensemble: %w", err)
		}
	}
	if *fanin {
		fmt.Fprintln(stderr, "sweeping community-graph fan-in grid...")
		if err := printFanInSweep(stdout, suite, *commIDF); err != nil {
			return fmt.Errorf("fan-in sweep: %w", err)
		}
	}
	if *sampling {
		fmt.Fprintln(stderr, "sweeping flow-sampling rates...")
		if err := printSamplingSweep(stdout, suite, uint64(*seed)); err != nil {
			return fmt.Errorf("sampling sweep: %w", err)
		}
	}
	if reg != nil {
		snap := reg.TakeSnapshot()
		if pr, ok := plotters.PruneSummary(snap); ok {
			fmt.Fprintf(stderr, "θ_hm pruning: %d of %d pairs evaluated exactly, +%d calibration (%.1f%%; index pruned %d, bound pruned %d, gated %d)\n",
				pr.Exact, pr.PairsTotal, pr.Calibration, 100*pr.ExactFraction, pr.PrunedIndex, pr.PrunedBound, pr.Gated)
		}
		f, err := os.Create(*metricsTo)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			f.Close()
			return fmt.Errorf("writing metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "pipeline metrics written to %s\n", *metricsTo)
	}
	return nil
}

// runCampaign executes the red-team campaign sweep and prints the
// evasion-cost frontier as a markdown table (JSON also written when out
// is set).
func runCampaign(w, stderr io.Writer, seed int64, days int, scale, worlds, grid, out string, voteK, parallel int) error {
	cfg := plotters.DefaultCampaignConfig(seed)
	cfg.Days = days
	cfg.Scale = plotters.CampaignScale(scale)
	cfg.VoteK = voteK
	cfg.Pipeline.Parallelism = parallel
	if worlds != "all" {
		cfg.Worlds = nil
		for _, w := range strings.Split(worlds, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Worlds = append(cfg.Worlds, w)
			}
		}
	}
	cfg.Intensities = nil
	for _, part := range strings.Split(grid, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad -campaign-grid %q: %w", grid, err)
		}
		cfg.Intensities = append(cfg.Intensities, p)
	}
	cfg.Progress = func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	rep, err := plotters.RunCampaign(cfg)
	if err != nil {
		return err
	}
	if err := rep.CheckMonotone(); err != nil {
		return err
	}
	fmt.Fprint(w, rep.Markdown())
	if out != "" {
		raw, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "campaign report written to %s\n", out)
	}
	return nil
}

// printEnsemble scores every configured detector and the ensemble
// combiners (union, intersection, k-of-n vote) against ground truth.
func printEnsemble(w io.Writer, s *plotters.Suite, voteK int) error {
	r, err := s.Ensemble(voteK)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Detector ensemble: precision/recall per day (detectors: %s; vote k=%d)\n",
		strings.Join(r.Detectors, ", "), r.VoteK)
	fmt.Fprintln(w, "# day\tset\tTP\tFP\tprecision\trecall")
	row := func(day, set string, rates eval.Rates) {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.4f\t%.4f\n",
			day, set, rates.TP, rates.FP, rates.Precision(), rates.Recall())
	}
	for _, d := range r.Days {
		day := fmt.Sprintf("%d", d.Day)
		for i, name := range r.Detectors {
			row(day, name, d.PerDetector[i])
		}
		row(day, "union", d.Union)
		row(day, "intersection", d.Intersection)
		row(day, fmt.Sprintf("vote-%d", r.VoteK), d.Vote)
	}
	for i, name := range r.Detectors {
		row("all", name, r.PerDetector[i])
	}
	row("all", "union", r.Union)
	row("all", "intersection", r.Intersection)
	row("all", fmt.Sprintf("vote-%d", r.VoteK), r.Vote)
	fmt.Fprintln(w)
	return nil
}

// printFanInSweep sweeps the community graph's two structural knobs and
// prints one ROC row per operating point, rates accumulated across all
// suite days. MaxFanIn 0 is the uncapped end of the axis.
func printFanInSweep(w io.Writer, s *plotters.Suite, idf bool) error {
	base := plotters.DefaultCommunityConfig()
	base.Graph.IDFWeights = idf
	points, err := s.FanInSweep(base,
		[]int{2, 3, 4, 6},
		[]int{16, 32, 64, 128, 0})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Community-graph fan-in sweep: ROC over MinSharedContacts × MaxFanIn (idf=%v)\n", idf)
	fmt.Fprintln(w, "# minShared\tmaxFanIn\tedges\tTP\tFP\tTPR\tFPR\tprecision\trecall")
	for _, p := range points {
		fanIn := fmt.Sprintf("%d", p.MaxFanIn)
		if p.MaxFanIn == 0 {
			fanIn = "off"
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%.4f\t%.6f\t%.4f\t%.4f\n",
			p.MinSharedContacts, fanIn, p.Edges,
			p.Rates.TP, p.Rates.FP, p.Rates.TPR(), p.Rates.FPR(),
			p.Rates.Precision(), p.Rates.Recall())
	}
	fmt.Fprintln(w)
	return nil
}

// printSamplingSweep measures detection quality under the ingest
// subsystem's deterministic 1-in-N flow sampling, one row per rate,
// rates accumulated across all suite days against the full-rate host
// set (hosts whose every flow was sampled away count as misses).
func printSamplingSweep(w io.Writer, s *plotters.Suite, seed uint64) error {
	points, err := s.SamplingSweep([]uint64{1, 4, 16, 64}, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Flow-sampling sweep: detection vs. ingest sampling rate (seed-stable 1-in-N sampler)")
	fmt.Fprintln(w, "# rate\tkept\tTP\tFP\tprecision\trecall\tstormRecall\tnugacheRecall")
	for _, p := range points {
		fmt.Fprintf(w, "1/%d\t%.4f\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f\n",
			p.N, p.KeptFraction(), p.Overall.TP, p.Overall.FP,
			p.Overall.Precision(), p.Overall.Recall(),
			p.Storm.Recall(), p.Nugache.Recall())
	}
	fmt.Fprintln(w)
	return nil
}

// compareBaselines prints the §II baseline-detector comparison.
func compareBaselines(w io.Writer, s *plotters.Suite) error {
	outcomes, err := s.CompareBaselines()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Baseline comparison: per-class detection rates")
	fmt.Fprintln(w, "# detector\tstorm\tnugache\ttraders\tcampus")
	for _, o := range outcomes {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%.4f\n", o.Name, o.StormTPR, o.NugacheTPR, o.TraderRate, o.CampusRate)
	}
	fmt.Fprintln(w)
	return nil
}

// parseFigs returns the figures listed, ascending, each once.
func parseFigs(s string) ([]int, error) {
	var out []int
	switch s {
	case "none":
		return out, nil
	case "all":
		for f := range figures {
			out = append(out, f)
		}
	default:
		for _, part := range strings.Split(s, ",") {
			var f int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &f); err != nil {
				return nil, fmt.Errorf("bad figure list %q", s)
			}
			if figures[f] == nil {
				return nil, fmt.Errorf("no such figure: %d (figure 4 is the algorithm itself)", f)
			}
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return slices.Compact(out), nil
}

func printCDFs(w io.Writer, title string, cdfs *eval.DatasetCDFs) {
	fmt.Fprintf(w, "## %s\n", title)
	for _, part := range []struct {
		name string
		pts  []stats.CDFPoint
	}{
		{"cmu-minus-traders", cdfs.CMU},
		{"traders", cdfs.Trader},
		{"storm", cdfs.Storm},
		{"nugache", cdfs.Nugache},
	} {
		fmt.Fprint(w, stats.FormatCDF(part.name, part.pts))
	}
	fmt.Fprintln(w)
}

func figure1(w io.Writer, s *plotters.Suite) error {
	cdfs, err := s.Figure1()
	if err != nil {
		return err
	}
	printCDFs(w, "Figure 1: CDF of average flow size (bytes uploaded per flow) per host", cdfs)
	return nil
}

func figure2(w io.Writer, s *plotters.Suite) error {
	r, err := s.Figure2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Figure 2: new IPs contacted by a Trader vs. a Storm bot")
	for _, part := range []struct {
		name string
		s    eval.Fig2Series
	}{
		{"trader", r.Trader},
		{"storm", r.Storm},
	} {
		fmt.Fprintf(w, "# %s\n# hour\ttotalIPs\tnewIPs\tnewFraction\n", part.name)
		for i := range part.s.Hour {
			fmt.Fprintf(w, "%d\t%d\t%d\t%.4f\n", part.s.Hour[i], part.s.TotalIPs[i], part.s.NewIPs[i], part.s.NewFraction[i])
		}
	}
	fmt.Fprintln(w)
	return nil
}

func figure3(w io.Writer, s *plotters.Suite) error {
	panels, err := s.Figure3()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Figure 3: per-destination flow interstitial time distributions")
	for _, p := range panels {
		fmt.Fprintf(w, "# %s (n=%d)\n# seconds\tmass\n", p.Name, p.Samples)
		for i := range p.BinSeconds {
			if p.Mass[i] < 0.005 {
				continue // keep the dump readable: only visible bins
			}
			fmt.Fprintf(w, "%.3g\t%.4f\n", p.BinSeconds[i], p.Mass[i])
		}
	}
	fmt.Fprintln(w)
	return nil
}

func figure5(w io.Writer, s *plotters.Suite) error {
	cdfs, err := s.Figure5()
	if err != nil {
		return err
	}
	printCDFs(w, "Figure 5: CDF of failed-connection percentage per host", cdfs)
	return nil
}

func printROC(w io.Writer, title string, points []eval.ROCPoint) {
	fmt.Fprintf(w, "## %s\n", title)
	fmt.Fprintln(w, "# percentile\tstormTPR\tnugacheTPR\tFPR")
	for _, p := range points {
		fmt.Fprintf(w, "%.0f\t%.4f\t%.4f\t%.4f\n", p.Percentile, p.Storm.TPR(), p.Nugache.TPR(), p.FPR)
	}
	fmt.Fprintln(w)
}

func figure6(w io.Writer, s *plotters.Suite) error {
	points, err := s.Figure6()
	if err != nil {
		return err
	}
	printROC(w, "Figure 6: ROC of the volume test θ_vol", points)
	return nil
}

func figure7(w io.Writer, s *plotters.Suite) error {
	points, err := s.Figure7()
	if err != nil {
		return err
	}
	printROC(w, "Figure 7: ROC of the peer-churn test θ_churn", points)
	return nil
}

func figure8(w io.Writer, s *plotters.Suite) error {
	points, err := s.Figure8()
	if err != nil {
		return err
	}
	printROC(w, "Figure 8: ROC of the human-vs-machine test θ_hm", points)
	return nil
}

func figure9(w io.Writer, s *plotters.Suite) error {
	r, err := s.Figure9()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Figure 9: FindPlotters stage-by-stage refinement (totals over all days)")
	fmt.Fprintln(w, "# stage\tstorm\tnugache\ttraders\tothers")
	for _, st := range r.Stages {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", st.Name, st.Counts.Storm, st.Counts.Nugache, st.Counts.Traders, st.Counts.Others)
	}
	fmt.Fprintf(w, "# headline: stormTPR=%.4f nugacheTPR=%.4f FP=%.4f tradersRemaining=%.4f traderShareOfOutput=%.4f\n\n",
		r.StormTPR, r.NugacheTPR, r.FPRate, r.TradersRemaining, r.TraderShareOfOutput)
	return nil
}

func figure10(w io.Writer, s *plotters.Suite) error {
	r, err := s.Figure10()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Figure 10: CDF of flow counts of Nugache bots surviving each stage")
	for _, stage := range []string{"all", "reduction", "vol∪churn", "hm"} {
		pts := r.Stages[stage]
		fmt.Fprint(w, stats.FormatCDF(stage, pts))
	}
	fmt.Fprintln(w)
	return nil
}

func figure11(w io.Writer, s *plotters.Suite) error {
	daysData, err := s.Figure11()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Figure 11(a): τ_vol vs. overlaid Plotter volume medians")
	fmt.Fprintln(w, "# day\tτ_vol\tstormMedian\tstormFactor\tnugacheMedian\tnugacheFactor")
	for _, d := range daysData {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.2f\t%.1f\t%.2f\n",
			d.Day, d.VolThreshold, d.StormVolMedian, d.StormVolFactor, d.NugacheVolMedian, d.NugacheVolFactor)
	}
	fmt.Fprintln(w, "## Figure 11(b): τ_churn vs. overlaid Plotter churn medians (factor = ×new-IPs to reach 90%)")
	fmt.Fprintln(w, "# day\tτ_churn\tstormMedian\tstormFactor90\tnugacheMedian\tnugacheFactor90")
	for _, d := range daysData {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.2f\t%.3f\t%.2f\n",
			d.Day, d.ChurnThreshold, d.StormChurnMedian, d.StormChurnFactor90, d.NugacheChurnMedian, d.NugacheChurnFactor90)
	}
	fmt.Fprintln(w)
	return nil
}

func figure12(w io.Writer, s *plotters.Suite) error {
	points, err := s.Figure12(nil, 3)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Figure 12: detection decay under ±d uniform jitter of repeat contacts")
	fmt.Fprintln(w, "# delay\tstormTPR\tnugacheTPR")
	for _, p := range points {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", p.Delay, p.StormTPR, p.NugacheTPR)
	}
	fmt.Fprintln(w)
	return nil
}
