package eval

import (
	"sync"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/stats"
	"plotters/internal/synth/scenario"
)

// testCorpus lazily builds one small shared corpus for the whole package.
var testCorpus struct {
	once  sync.Once
	ds    *scenario.Dataset
	suite *Suite
	err   error
}

func corpus(t *testing.T) (*scenario.Dataset, *Suite) {
	t.Helper()
	testCorpus.once.Do(func() {
		cfg := scenario.DefaultDatasetConfig(42)
		cfg.Days = 2
		cfg.DayTemplate.CampusHosts = 120
		cfg.DayTemplate.Gnutella = 4
		cfg.DayTemplate.EMule = 4
		cfg.DayTemplate.BitTorrent = 6
		cfg.DayTemplate.PeerNetworkNodes = 1000
		cfg.Storm.Bots = 8
		cfg.Storm.OverlayNodes = 600
		cfg.Storm.SeedPeers = 60
		cfg.Nugache.Bots = 20
		cfg.Nugache.OverlayNodes = 500
		ds, err := scenario.GenerateDataset(cfg)
		if err != nil {
			testCorpus.err = err
			return
		}
		suite, err := NewSuite(ds, core.DefaultConfig(), 7)
		if err != nil {
			testCorpus.err = err
			return
		}
		testCorpus.ds = ds
		testCorpus.suite = suite
	})
	if testCorpus.err != nil {
		t.Fatal(testCorpus.err)
	}
	return testCorpus.ds, testCorpus.suite
}

func TestRates(t *testing.T) {
	kept := core.NewHostSet(1, 2, 10)
	input := core.NewHostSet(1, 2, 3, 10, 11, 12)
	truth := core.NewHostSet(1, 2, 3)
	r := Score(kept, input, truth)
	if r.TP != 2 || r.FP != 1 || r.Plotters != 3 || r.Others != 3 {
		t.Errorf("rates = %+v", r)
	}
	if r.TPR() != 2.0/3.0 || r.FPR() != 1.0/3.0 {
		t.Errorf("TPR/FPR = %v/%v", r.TPR(), r.FPR())
	}
	var zero Rates
	if zero.TPR() != 0 || zero.FPR() != 0 {
		t.Error("zero rates should be 0")
	}
	zero.Add(r)
	if zero.TP != 2 || zero.Others != 3 {
		t.Errorf("Add = %+v", zero)
	}
}

func TestOverlayDayEval(t *testing.T) {
	ds, suite := corpus(t)
	de, err := suite.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(de.Storm) != len(ds.Storm.Bots) {
		t.Errorf("storm hosts = %d, want %d", len(de.Storm), len(ds.Storm.Bots))
	}
	if len(de.Nugache) != len(ds.Nugache.Bots) {
		t.Errorf("nugache hosts = %d, want %d", len(de.Nugache), len(ds.Nugache.Bots))
	}
	// No host carries two bots, and bot hosts are disjoint from the
	// trader ground-truth set.
	for h := range de.Storm {
		if de.Nugache[h] {
			t.Errorf("host %v carries both botnets", h)
		}
		if de.Traders[h] {
			t.Errorf("bot host %v also in trader set", h)
		}
	}
	if len(de.Traders) == 0 {
		t.Error("no traders labeled")
	}
	if got := len(de.Plotters()); got != len(de.Storm)+len(de.Nugache) {
		t.Errorf("Plotters = %d", got)
	}
	// Bot flow counts accounted.
	total := 0
	for h, n := range de.BotFlows {
		if !de.Storm[h] && !de.Nugache[h] {
			t.Errorf("bot flows recorded for non-bot host %v", h)
		}
		total += n
	}
	if total == 0 {
		t.Error("no bot flows recorded")
	}
	// Day caching: same pointer on second call.
	again, err := suite.Day(0)
	if err != nil || again != de {
		t.Error("Day(0) not cached")
	}
	if _, err := suite.Day(99); err == nil {
		t.Error("out-of-range day accepted")
	}
}

func TestFigure1And5(t *testing.T) {
	_, suite := corpus(t)
	f1, err := suite.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper ordering: Trader median volume far above campus; Storm below.
	medianX := func(pts []stats.CDFPoint) float64 { return pts[len(pts)/2].X }
	if medianX(f1.Trader) < 4*medianX(f1.CMU) {
		t.Errorf("trader median volume %v not far above campus %v", medianX(f1.Trader), medianX(f1.CMU))
	}
	if medianX(f1.Storm) > medianX(f1.CMU) {
		t.Errorf("storm median volume %v above campus %v", medianX(f1.Storm), medianX(f1.CMU))
	}

	f5, err := suite.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// P2P populations fail far more than the campus background.
	if medianX(f5.Trader) < medianX(f5.CMU) {
		t.Errorf("trader failed%% %v below campus %v", medianX(f5.Trader), medianX(f5.CMU))
	}
	if medianX(f5.Nugache) < 50 {
		t.Errorf("nugache median failed%% = %v, want >50", medianX(f5.Nugache))
	}
}

func TestFigure2(t *testing.T) {
	_, suite := corpus(t)
	r, err := suite.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trader.Hour) == 0 || len(r.Storm.Hour) == 0 {
		t.Fatal("empty series")
	}
	// Figure 2's shape: the Trader ends the day with a (much) higher
	// new-IP fraction than the Storm bot.
	traderFinal := r.Trader.NewFraction[len(r.Trader.NewFraction)-1]
	stormFinal := r.Storm.NewFraction[len(r.Storm.NewFraction)-1]
	if traderFinal <= stormFinal {
		t.Errorf("trader new fraction %v not above storm %v", traderFinal, stormFinal)
	}
	// Cumulative counts are monotone.
	for i := 1; i < len(r.Trader.TotalIPs); i++ {
		if r.Trader.TotalIPs[i] < r.Trader.TotalIPs[i-1] {
			t.Fatal("trader totals not monotone")
		}
	}
}

func TestFigure3(t *testing.T) {
	_, suite := corpus(t)
	panels, err := suite.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("panels = %d, want 4", len(panels))
	}
	names := map[string]bool{}
	for _, p := range panels {
		names[p.Name] = true
		if len(p.BinSeconds) == 0 || p.Samples == 0 {
			t.Errorf("panel %s empty", p.Name)
		}
		var mass float64
		for _, m := range p.Mass {
			mass += m
		}
		if mass < 0.99 || mass > 1.01 {
			t.Errorf("panel %s mass = %v", p.Name, mass)
		}
	}
	for _, want := range []string{"storm", "nugache", "bittorrent", "gnutella"} {
		if !names[want] {
			t.Errorf("missing panel %s", want)
		}
	}
}

func TestFigure6Through8ROCMonotone(t *testing.T) {
	_, suite := corpus(t)
	for name, run := range map[string]func() ([]ROCPoint, error){
		"fig6": suite.Figure6,
		"fig7": suite.Figure7,
		"fig8": suite.Figure8,
	} {
		points, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(points) != len(PercentileSweep) {
			t.Fatalf("%s: %d points", name, len(points))
		}
		// Higher (more permissive) percentiles can only widen the kept
		// set for vol/churn: TPR and FPR must be non-decreasing.
		if name != "fig8" {
			for i := 1; i < len(points); i++ {
				if points[i].Storm.TPR() < points[i-1].Storm.TPR()-1e-9 {
					t.Errorf("%s: storm TPR not monotone at %v", name, points[i].Percentile)
				}
				if points[i].FPR < points[i-1].FPR-1e-9 {
					t.Errorf("%s: FPR not monotone at %v", name, points[i].Percentile)
				}
			}
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	_, suite := corpus(t)
	r, err := suite.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != 5 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	// Refinement: the suspect set shrinks stage over stage, and the
	// paper's orderings hold — Storm detection far above Nugache, FP rate
	// small, most Traders eliminated.
	all := r.Stages[0].Counts
	final := r.Stages[4].Counts
	if final.Total() >= all.Total() {
		t.Error("pipeline did not reduce the host set")
	}
	if r.StormTPR < 0.5 {
		t.Errorf("storm TPR = %v, want high", r.StormTPR)
	}
	if r.StormTPR <= r.NugacheTPR {
		t.Errorf("storm TPR %v not above nugache %v", r.StormTPR, r.NugacheTPR)
	}
	if r.FPRate > 0.15 {
		t.Errorf("FP rate = %v, too high", r.FPRate)
	}
	if r.TradersRemaining > 0.5 {
		t.Errorf("traders remaining = %v, want most eliminated", r.TradersRemaining)
	}
	// The volume stage kills essentially all Traders.
	if vol := r.Stages[2].Counts; vol.Traders > all.Traders/4 {
		t.Errorf("volume stage kept %d of %d traders", vol.Traders, all.Traders)
	}
}

func TestFigure10Shift(t *testing.T) {
	_, suite := corpus(t)
	r, err := suite.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	allPts := r.Stages["all"]
	if len(allPts) == 0 {
		t.Fatal("no baseline CDF")
	}
	// Survivors of θ_hm are at least as communicative as the population:
	// median flow count must not decrease.
	if hmPts := r.Stages["hm"]; len(hmPts) > 0 {
		if hmPts[len(hmPts)/2].X < allPts[len(allPts)/2].X {
			t.Errorf("surviving median flows %v below population median %v",
				hmPts[len(hmPts)/2].X, allPts[len(allPts)/2].X)
		}
	}
}

func TestFigure11Factors(t *testing.T) {
	_, suite := corpus(t)
	days, err := suite.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != suite.Days() {
		t.Fatalf("days = %d", len(days))
	}
	for _, d := range days {
		// Storm must need a larger volume increase than Nugache (paper:
		// ≈5× vs ≈1.3×).
		if d.StormVolFactor <= d.NugacheVolFactor {
			t.Errorf("day %d: storm factor %v not above nugache %v", d.Day, d.StormVolFactor, d.NugacheVolFactor)
		}
		if d.StormVolFactor < 2 {
			t.Errorf("day %d: storm volume factor %v, want ≫1", d.Day, d.StormVolFactor)
		}
		if d.StormChurnFactor90 < 1.5 {
			t.Errorf("day %d: storm churn factor %v, want ≥1.5", d.Day, d.StormChurnFactor90)
		}
	}
}

func TestFigure12Decay(t *testing.T) {
	_, suite := corpus(t)
	sweep := []time.Duration{30 * time.Second, 30 * time.Minute}
	points, err := suite.Figure12(sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Minute-scale jitter must hurt Storm detection relative to
	// 30-second jitter (the paper's central evasion result).
	if points[1].StormTPR > points[0].StormTPR {
		t.Errorf("storm TPR rose under heavy jitter: %v -> %v", points[0].StormTPR, points[1].StormTPR)
	}
}

func TestReduceDay(t *testing.T) {
	_, suite := corpus(t)
	de, err := suite.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	red, err := de.Analysis.Reduce()
	if err != nil {
		t.Fatal(err)
	}
	kept := len(red.Kept)
	if red.Eligible == 0 || kept == 0 {
		t.Errorf("reduction empty: %+v", red)
	}
	// Reduction keeps roughly half the eligible hosts.
	frac := float64(kept) / float64(red.Eligible)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("reduction kept %.2f of hosts, want ≈0.5", frac)
	}
}

func TestSuiteValidation(t *testing.T) {
	ds, _ := corpus(t)
	bad := core.DefaultConfig()
	bad.CutFraction = 2
	if _, err := NewSuite(ds, bad, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSuite(&scenario.Dataset{}, core.DefaultConfig(), 1); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestCompareBaselines(t *testing.T) {
	_, suite := corpus(t)
	outcomes, err := suite.CompareBaselines()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]DetectorOutcome, len(outcomes))
	for _, o := range outcomes {
		byName[o.Name] = o
	}
	fp := byName["findplotters"]
	tdg := byName["tdg"]
	fc := byName["failedconn"]
	if fp.Name == "" || tdg.Name == "" || fc.Name == "" {
		t.Fatalf("missing detectors: %+v", outcomes)
	}
	// The paper's motivating claim: generic P2P identifiers flag the
	// Traders wholesale; FindPlotters does not.
	if fc.TraderRate < 0.8 {
		t.Errorf("failed-conn detector trader rate = %v, want ~1 (it cannot separate)", fc.TraderRate)
	}
	if fp.TraderRate >= fc.TraderRate {
		t.Errorf("findplotters trader rate %v not below failed-conn %v", fp.TraderRate, fc.TraderRate)
	}
	// FindPlotters keeps campus false positives far below the coarse
	// failed-connection identifier.
	if fp.CampusRate >= fc.CampusRate {
		t.Errorf("findplotters campus rate %v not below failed-conn %v", fp.CampusRate, fc.CampusRate)
	}
	for _, o := range outcomes {
		t.Logf("%-14s storm=%.2f nugache=%.2f traders=%.2f campus=%.2f",
			o.Name, o.StormTPR, o.NugacheTPR, o.TraderRate, o.CampusRate)
	}
}
