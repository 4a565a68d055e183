package campaign

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
)

// tinyConfig is the CI smoke configuration: one day of the tiny campus,
// every countermeasure at a 2-point grid.
func tinyConfig() Config {
	return Config{
		Seed:            42,
		Days:            1,
		Scale:           ScaleTiny,
		Worlds:          []string{"baseline"},
		Countermeasures: DefaultCountermeasures(),
		Intensities:     []float64{0.5, 1},
		Pipeline:        core.DefaultConfig(),
	}
}

var (
	tinyOnce   sync.Once
	tinyRep    *Report
	tinyRepErr error
)

// tinyReport runs the smoke sweep once and shares it across tests.
func tinyReport(t *testing.T) *Report {
	t.Helper()
	tinyOnce.Do(func() {
		tinyRep, tinyRepErr = Run(tinyConfig())
	})
	if tinyRepErr != nil {
		t.Fatal(tinyRepErr)
	}
	return tinyRep
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"no worlds", func(c *Config) { c.Worlds = nil }},
		{"no countermeasures", func(c *Config) { c.Countermeasures = nil }},
		{"descending grid", func(c *Config) { c.Intensities = []float64{1, 0.5} }},
		{"zero intensity", func(c *Config) { c.Intensities = []float64{0, 0.5} }},
		{"intensity above one", func(c *Config) { c.Intensities = []float64{0.5, 1.5} }},
		{"unknown world", func(c *Config) { c.Worlds = []string{"atlantis"} }},
		{"duplicate world", func(c *Config) { c.Worlds = []string{"baseline", "baseline"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("Run accepted invalid config (%s)", tc.name)
			}
		})
	}
}

func TestCountermeasureRejectsBadIntensity(t *testing.T) {
	recs := []flow.Record{{Src: 1, Dst: 2, Proto: flow.TCP, SrcBytes: 10, SrcPkts: 1, State: flow.StateEstablished}}
	env := Env{FreshPool: freshPool(4), VolTarget: 100}
	for _, cm := range DefaultCountermeasures() {
		for _, bad := range []float64{-0.1, 1.1} {
			if _, _, err := cm.Apply(recs, bad, env, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("%s accepted intensity %v", cm.Name(), bad)
			}
		}
	}
}

// TestRunDeterminism pins the subsystem's core guarantee: the same seed
// produces a bit-identical campaign report across independent runs
// (and, under -race in CI, across goroutine schedules).
func TestRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep synthesizes a corpus; skipped in -short mode")
	}
	first := tinyReport(t)
	again, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.MarshalIndent(first, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(again, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\nrun 1: %s\nrun 2: %s", a, b)
	}
	// CI exports the verified report as a build artifact (beside the
	// kill-and-resume test's checkpoint) so a frontier regression leaves
	// a concrete JSON to diff against the previous run's.
	if dir := os.Getenv("CAMPAIGN_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := first.JSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "campaign-report.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("campaign report exported to %s", path)
	}
}

// TestCostMonotone pins the frontier property: within each world, every
// countermeasure's cost is non-decreasing along the intensity grid
// (common random numbers make this exact, not statistical).
func TestCostMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep synthesizes a corpus; skipped in -short mode")
	}
	rep := tinyReport(t)
	if err := rep.CheckMonotone(); err != nil {
		t.Fatal(err)
	}
	// The grid must actually have costs: full-strength padding and churn
	// mimicry are not free.
	for _, w := range rep.Worlds {
		for _, p := range w.Frontier {
			if p.Intensity == 1 {
				free := p.Cost == Cost{}
				if free {
					t.Errorf("world %s: %s at full strength reports zero cost", w.Name, p.Countermeasure)
				}
			}
		}
	}
}

// TestReportShape sanity-checks the report layout the CLI and CI
// artifact consumers rely on.
func TestReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep synthesizes a corpus; skipped in -short mode")
	}
	rep := tinyReport(t)
	if len(rep.Worlds) != 1 || rep.Worlds[0].Name != "baseline" {
		t.Fatalf("worlds = %+v, want one baseline world", rep.Worlds)
	}
	w := rep.Worlds[0]
	wantPoints := len(DefaultCountermeasures()) * 2
	if len(w.Frontier) != wantPoints {
		t.Fatalf("frontier has %d points, want %d", len(w.Frontier), wantPoints)
	}
	wantScores := []string{core.PaperName, "community", "union", "intersection", "vote-2"}
	for _, row := range append([][]Score{w.Baseline}, [][]Score{w.Frontier[0].Scores}...) {
		if len(row) != len(wantScores) {
			t.Fatalf("score row has %d entries, want %d", len(row), len(wantScores))
		}
		for i, s := range row {
			if s.Name != wantScores[i] {
				t.Errorf("score %d named %q, want %q", i, s.Name, wantScores[i])
			}
		}
	}
	for _, det := range wantScores[:2] {
		if _, ok := w.Day0Suspects[det]; !ok {
			t.Errorf("day-0 suspects missing detector %q", det)
		}
	}
	if w.VolTarget <= 0 {
		t.Errorf("vol target = %v, want positive", w.VolTarget)
	}
	if w.Records == 0 || w.Hosts == 0 {
		t.Errorf("world size not recorded: records=%d hosts=%d", w.Records, w.Hosts)
	}
	for _, s := range w.Baseline {
		if s.Rates.Plotters == 0 {
			t.Errorf("baseline %s scored zero plotters in input", s.Name)
		}
	}
}

// TestSubSeedStable pins the CRN seed derivation: countermeasure rng
// seeds depend on (seed, world, countermeasure, trace) and nothing else.
func TestSubSeedStable(t *testing.T) {
	a := subSeed(42, "baseline", "timer-jitter", "storm")
	b := subSeed(42, "baseline", "timer-jitter", "storm")
	if a != b {
		t.Fatalf("subSeed not stable: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("subSeed negative: %d", a)
	}
	distinct := map[int64]string{}
	for _, labels := range [][]string{
		{"baseline", "timer-jitter", "storm"},
		{"baseline", "timer-jitter", "nugache"},
		{"baseline", "slow-start", "storm"},
		{"edonkey", "timer-jitter", "storm"},
	} {
		s := subSeed(42, labels...)
		if prev, dup := distinct[s]; dup {
			t.Fatalf("subSeed collision between %v and %s", labels, prev)
		}
		distinct[s] = labels[0] + "/" + labels[1] + "/" + labels[2]
	}
}

func TestCostPartialOrder(t *testing.T) {
	base := Cost{ExtraBytes: 10, ExtraPeers: 2, AddedLatency: time.Second}
	if !base.AtLeast(base) {
		t.Error("cost not >= itself")
	}
	if !base.AtLeast(Cost{}) {
		t.Error("cost not >= zero")
	}
	if base.AtLeast(Cost{ExtraBytes: 11}) {
		t.Error("cost >= one with more bytes")
	}
	sum := base.Add(Cost{ExtraBytes: 1, ExtraPeers: 1, AddedLatency: time.Second})
	want := Cost{ExtraBytes: 11, ExtraPeers: 3, AddedLatency: 2 * time.Second}
	if sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
}

func TestCheckMonotoneCatchesRegression(t *testing.T) {
	rep := &Report{Worlds: []WorldResult{{
		Name: "baseline",
		Frontier: []FrontierPoint{
			{Countermeasure: "volume-padding", Intensity: 0.5, Cost: Cost{ExtraBytes: 100}},
			{Countermeasure: "volume-padding", Intensity: 1, Cost: Cost{ExtraBytes: 50}},
		},
	}}}
	if err := rep.CheckMonotone(); err == nil {
		t.Fatal("CheckMonotone accepted a shrinking cost")
	}
}
