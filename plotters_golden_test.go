// Golden regression test for the end-to-end detection pipeline: the
// suspect set and every stage's survivor count on the canonical
// evaluation corpus are pinned in testdata/findplotters_golden.json.
// Any change to synthesis, feature extraction, thresholds, EMD, or
// clustering that moves the outcome fails here first.
//
// After an intentional behavior change, regenerate with:
//
//	go test -run TestFindPlottersGolden -update
package plotters_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"plotters"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

const goldenPath = "testdata/findplotters_golden.json"

// goldenStage pins one filter's survivor count and its dynamically
// computed threshold.
type goldenStage struct {
	Survivors int     `json:"survivors"`
	Threshold float64 `json:"threshold"`
}

// goldenResult pins the full pipeline outcome on day 0 of the seed-42
// evaluation corpus.
type goldenResult struct {
	Records   int         `json:"records"`
	Analyzed  int         `json:"analyzed_hosts"`
	Reduction goldenStage `json:"reduction"`
	Vol       goldenStage `json:"vol"`
	Churn     goldenStage `json:"churn"`
	HM        goldenStage `json:"hm"`
	Clusters  int         `json:"hm_clusters"`
	Clustered int         `json:"hm_clustered"`
	Skipped   int         `json:"hm_skipped"`
	Suspects  []string    `json:"suspects"`
}

// goldenDataset synthesizes day 0 of the seed-42 evaluation corpus. Day
// d of a dataset is derived from cfg.Seed + d*7919 and the honeynet
// traces from fixed seed offsets, so a Days=1 corpus reproduces day 0 of
// the full eight-day evaluation bit for bit at an eighth of the
// synthesis cost. It is synthesized once (~13s) and shared: the tests
// only read it.
func goldenDataset(t *testing.T) *plotters.Dataset {
	t.Helper()
	goldenCorpus.once.Do(func() {
		dsCfg := plotters.DefaultDatasetConfig(42)
		dsCfg.Days = 1
		goldenCorpus.ds, goldenCorpus.err = plotters.GenerateDataset(dsCfg)
	})
	if goldenCorpus.err != nil {
		t.Fatal(goldenCorpus.err)
	}
	return goldenCorpus.ds
}

var goldenCorpus struct {
	once sync.Once
	ds   *plotters.Dataset
	err  error
}

// goldenDay overlays the corpus exactly as cmd/experiments does (suite
// seed = dataset seed + 1).
func goldenDay(t *testing.T, ds *plotters.Dataset, cfg plotters.Config) *plotters.DayEval {
	t.Helper()
	suite, err := plotters.NewSuite(ds, cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	day, err := suite.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	return day
}

func resultToGolden(de *plotters.DayEval, res *plotters.Result) goldenResult {
	suspects := res.Suspects.Sorted()
	strs := make([]string, len(suspects))
	for i, h := range suspects {
		strs[i] = h.String()
	}
	return goldenResult{
		Records:   len(de.Records),
		Analyzed:  len(res.Analysis.Hosts()),
		Reduction: goldenStage{len(res.Reduction.Kept), res.Reduction.Threshold},
		Vol:       goldenStage{len(res.Volume.Kept), res.Volume.Threshold},
		Churn:     goldenStage{len(res.Churn.Kept), res.Churn.Threshold},
		HM:        goldenStage{len(res.Suspects), res.HM.Threshold},
		Clusters:  len(res.HM.Clusters),
		Clustered: res.HM.Clustered,
		Skipped:   res.HM.Skipped,
		Suspects:  strs,
	}
}

// loadGolden reads the pinned pipeline outcome.
func loadGolden(t *testing.T) goldenResult {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// compareGolden checks a pipeline outcome against the pinned one.
// Thresholds are float64 percentiles; compare to a tolerance so the
// golden file's decimal rendering cannot cause spurious failures.
// Everything else must match exactly.
func compareGolden(t *testing.T, got, want goldenResult) {
	t.Helper()
	const tol = 1e-9
	for _, cmp := range []struct {
		name string
		got  goldenStage
		want goldenStage
	}{
		{"reduction", got.Reduction, want.Reduction},
		{"vol", got.Vol, want.Vol},
		{"churn", got.Churn, want.Churn},
		{"hm", got.HM, want.HM},
	} {
		if cmp.got.Survivors != cmp.want.Survivors {
			t.Errorf("%s survivors = %d, want %d", cmp.name, cmp.got.Survivors, cmp.want.Survivors)
		}
		if math.Abs(cmp.got.Threshold-cmp.want.Threshold) > tol {
			t.Errorf("%s threshold = %v, want %v", cmp.name, cmp.got.Threshold, cmp.want.Threshold)
		}
	}
	if got.Records != want.Records || got.Analyzed != want.Analyzed {
		t.Errorf("population: records=%d analyzed=%d, want records=%d analyzed=%d",
			got.Records, got.Analyzed, want.Records, want.Analyzed)
	}
	if got.Clusters != want.Clusters || got.Clustered != want.Clustered || got.Skipped != want.Skipped {
		t.Errorf("hm clustering: clusters=%d clustered=%d skipped=%d, want %d/%d/%d",
			got.Clusters, got.Clustered, got.Skipped, want.Clusters, want.Clustered, want.Skipped)
	}
	if !reflect.DeepEqual(got.Suspects, want.Suspects) {
		t.Errorf("suspect set changed:\ngot  %v\nwant %v", got.Suspects, want.Suspects)
	}
}

func TestFindPlottersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis takes ~15s; skipped in -short mode")
	}
	ds := goldenDataset(t)
	day := goldenDay(t, ds, plotters.DefaultConfig())
	res, err := day.Analysis.FindPlotters()
	if err != nil {
		t.Fatal(err)
	}
	got := resultToGolden(day, res)

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath)
		return
	}

	want := loadGolden(t)
	compareGolden(t, got, want)

	// An instrumented run must be behaviorally identical, and its
	// stage gauges must agree with the pinned survivor counts.
	cfg := plotters.DefaultConfig()
	reg := plotters.NewMetrics()
	cfg.Metrics = reg
	day2 := goldenDay(t, ds, cfg)
	res2, err := day2.Analysis.FindPlotters()
	if err != nil {
		t.Fatal(err)
	}
	if got2 := resultToGolden(day2, res2); !reflect.DeepEqual(got2, got) {
		t.Errorf("metrics-enabled run differs:\ngot  %+v\nwant %+v", got2, got)
	}
	snap := reg.TakeSnapshot()
	for gauge, want := range map[string]int{
		"pipeline/hosts/reduction": got.Reduction.Survivors,
		"pipeline/hosts/vol":       got.Vol.Survivors,
		"pipeline/hosts/churn":     got.Churn.Survivors,
		"pipeline/hosts/suspects":  got.HM.Survivors,
	} {
		if n := snap.Gauges[gauge]; n != int64(want) {
			t.Errorf("gauge %s = %d, want %d", gauge, n, want)
		}
	}
}
