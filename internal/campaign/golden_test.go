// Golden regression tests for the campaign subsystem: every synthetic
// world's shape and seed-42 baseline detection outcome is pinned in
// testdata/worlds_golden.json, every world's synthesized day-0 bytes are
// pinned by digest in testdata/world_digests.json, and the baseline
// world's day-0 suspects must reproduce the repo-level seed-42 pipeline
// goldens exactly.
//
// After an intentional behavior change, regenerate with:
//
//	go test ./internal/campaign -run 'TestWorldsGolden|TestWorldTraceDigests' -update
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/eval"
	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/synth/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

const worldsGoldenPath = "testdata/worlds_golden.json"

// worldGolden pins one world's day-0 shape and baseline detection
// outcome at seed 42 — exact integer counts, nothing statistical.
type worldGolden struct {
	Records int            `json:"records"`
	Hosts   int            `json:"hosts"`
	Roles   map[string]int `json:"roles,omitempty"`
	// Baseline maps detector name to its accumulated day-0 rates.
	Baseline map[string]eval.Rates `json:"baseline"`
}

// worldsGoldenConfig sweeps every world preset at the tiny scale with a
// minimal grid (the goldens pin the baseline, not the frontier).
func worldsGoldenConfig() Config {
	return Config{
		Seed:            42,
		Days:            1,
		Scale:           ScaleTiny,
		Worlds:          WorldNames(),
		Countermeasures: []Countermeasure{TimerJitter{Max: time.Minute}},
		Intensities:     []float64{1},
		Pipeline:        core.DefaultConfig(),
	}
}

func reportToWorldsGolden(rep *Report) map[string]worldGolden {
	out := make(map[string]worldGolden, len(rep.Worlds))
	for _, w := range rep.Worlds {
		g := worldGolden{
			Records:  w.Records,
			Hosts:    w.Hosts,
			Roles:    w.Roles,
			Baseline: make(map[string]eval.Rates, len(w.Baseline)),
		}
		for _, s := range w.Baseline {
			g.Baseline[s.Name] = s.Rates
		}
		out[w.Name] = g
	}
	return out
}

func TestWorldsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("world synthesis takes seconds per world; skipped in -short mode")
	}
	rep, err := Run(worldsGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := reportToWorldsGolden(rep)

	if *update {
		if err := os.MkdirAll(filepath.Dir(worldsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(worldsGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", worldsGoldenPath)
		return
	}

	raw, err := os.ReadFile(worldsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]worldGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range WorldNames() {
		g, ok := got[name]
		if !ok {
			t.Errorf("world %s missing from run", name)
			continue
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("world %s missing from golden (run with -update)", name)
			continue
		}
		if g.Records != w.Records || g.Hosts != w.Hosts {
			t.Errorf("world %s: records=%d hosts=%d, want records=%d hosts=%d",
				name, g.Records, g.Hosts, w.Records, w.Hosts)
		}
		if !reflect.DeepEqual(g.Roles, w.Roles) {
			t.Errorf("world %s: roles = %v, want %v", name, g.Roles, w.Roles)
		}
		if !reflect.DeepEqual(g.Baseline, w.Baseline) {
			t.Errorf("world %s: baseline rates = %v, want %v", name, g.Baseline, w.Baseline)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden pins unknown world %s", name)
		}
	}
}

const worldDigestsPath = "testdata/world_digests.json"

// traceDigest is the SHA-256 of records' flowio binary encoding.
func traceDigest(t *testing.T, records []flow.Record) string {
	t.Helper()
	h := sha256.New()
	if err := flowio.WriteAllBinary(h, records); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldTraceDigests pins the synthesized bytes behind the campaign:
// each world's seed-42 tiny-scale day 0 and the tiny Storm and Nugache
// honeynet traces, by digest. Record and host counts (TestWorldsGolden)
// cannot see a generator change that moves bytes without moving a count;
// this can.
func TestWorldTraceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("world synthesis takes seconds per world; skipped in -short mode")
	}
	got := map[string]string{}
	for _, name := range WorldNames() {
		w, err := NewWorld(name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		// The dataset runWorld synthesizes for day 0 at seed 42.
		dcfg := scenario.DefaultDatasetConfig(42)
		dcfg.Days = 1
		dcfg.Storm.Bots, dcfg.Nugache.Bots = honeynetBots(ScaleTiny)
		dcfg.DayTemplate = w.Template
		ds, err := scenario.GenerateDataset(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = traceDigest(t, ds.Days[0].Records)
		got["storm"] = traceDigest(t, ds.Storm.Records)
		got["nugache"] = traceDigest(t, ds.Nugache.Records)
	}

	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(worldDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", worldDigestsPath)
		return
	}
	raw, err := os.ReadFile(worldDigestsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s trace digest = %s, want %s", name, d, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("digest file pins unknown trace %s", name)
		}
	}
}

// repoGolden loads a repo-level seed-42 golden's pinned suspect list.
func repoGolden(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Suspects []string `json:"suspects"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g.Suspects
}

// TestBaselineMatchesRepoGoldens pins the acceptance criterion that the
// campaign's no-countermeasure row on the baseline world reproduces the
// repo-level seed-42 goldens: same corpus, same overlay seeds, same
// suspects for both detectors.
func TestBaselineMatchesRepoGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus synthesis takes ~15s; skipped in -short mode")
	}
	cfg := Config{
		Seed:            42,
		Days:            1,
		Scale:           ScalePaper,
		Worlds:          []string{"baseline"},
		Countermeasures: []Countermeasure{TimerJitter{Max: time.Minute}},
		Intensities:     []float64{1},
		Pipeline:        core.DefaultConfig(),
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Worlds[0]
	if got, want := w.Day0Suspects[core.PaperName], repoGolden(t, "findplotters_golden.json"); !reflect.DeepEqual(got, want) {
		t.Errorf("paper detector baseline diverged from repo golden:\ngot  %v\nwant %v", got, want)
	}
	if got, want := w.Day0Suspects["community"], repoGolden(t, "community_golden.json"); !reflect.DeepEqual(got, want) {
		t.Errorf("community detector baseline diverged from repo golden:\ngot  %v\nwant %v", got, want)
	}
}
