package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// communityTestConfig is scaled to the synthetic streams here: the
// machine hosts share a handful of destinations, the humans roam a
// 40-destination pool.
func communityTestConfig() community.Config {
	cfg := community.DefaultConfig()
	cfg.Graph = community.GraphConfig{MinSharedContacts: 2, MaxFanIn: 10}
	cfg.MinCommunitySize = 2
	cfg.MinAvgDegree = 1
	return cfg
}

func detectorPair(t *testing.T, coreCfg core.Config) []core.Detector {
	t.Helper()
	pd, err := core.NewPaperDetector(coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	commCfg := communityTestConfig()
	commCfg.Metrics = coreCfg.Metrics
	cd, err := community.New(commCfg)
	if err != nil {
		t.Fatal(err)
	}
	return []core.Detector{pd, cd}
}

// run feeds records through a freshly built engine and returns the
// emitted results.
func run(t *testing.T, cfg Config, records []flow.Record) []*Result {
	t.Helper()
	var results []*Result
	d, err := New(cfg, func(r *Result) error { results = append(results, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if err := d.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return results
}

// An ensemble engine run must leave the paper detector's verdicts
// untouched: window for window, the first detection equals the default
// single-detector engine's, and Result.Detection still carries the full
// paper result.
func TestEnsembleEnginePreservesPaperDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := baseTime()
	records := synthStream(rng, base, 3*time.Hour)

	single := run(t, Config{Window: time.Hour, Origin: base, Shards: 4, Core: testConfig()}, records)
	ensemble := run(t, Config{
		Window: time.Hour, Origin: base, Shards: 4, Core: testConfig(),
		Detectors: detectorPair(t, testConfig()),
	}, records)

	if len(ensemble) != len(single) {
		t.Fatalf("ensemble emitted %d windows, single %d", len(ensemble), len(single))
	}
	for i, res := range ensemble {
		detectionEqual(t, res.Window.String(), res.Detection, single[i].Detection)
		if len(res.Detections) != 2 {
			t.Fatalf("window %d: %d detections, want 2", i, len(res.Detections))
		}
		if res.Detections[0].Detector != core.PaperName || res.Detections[1].Detector != community.Name {
			t.Errorf("window %d detector order: %q, %q", i,
				res.Detections[0].Detector, res.Detections[1].Detector)
		}
		if res.Detections[0].Paper != res.Detection {
			t.Errorf("window %d: Detection not aliased to the paper detection", i)
		}
		if res.Detections[1].Community == nil || res.Detections[0].Community != nil {
			t.Errorf("window %d: community reports %v, %v; want only the second", i,
				res.Detections[0].Community, res.Detections[1].Community)
		}
	}
	// Default engine results also populate Detections (length 1).
	for i, res := range single {
		if len(res.Detections) != 1 || res.Detections[0].Paper != res.Detection {
			t.Errorf("single window %d: Detections misshaped", i)
		}
	}
}

// Each window's community verdict must equal the community detector run
// directly over that window's records — for tumbling (single-pane) and
// sliding (merged-pane) windows alike, proving contact sets survive the
// engine's sealing and merge paths.
func TestEngineCommunityMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	base := baseTime()
	records := synthStream(rng, base, 3*time.Hour)

	cd, err := community.New(communityTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		slide time.Duration
	}{
		{"tumbling", 0},
		{"sliding", 30 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := run(t, Config{
				Window: time.Hour, Slide: tc.slide, Origin: base, Shards: 4,
				Core: testConfig(), Detectors: detectorPair(t, testConfig()),
			}, records)
			if len(results) == 0 {
				t.Fatal("no windows emitted")
			}
			for _, res := range results {
				sub := res.Window.Filter(records)
				src := flow.ExtractFeatureSet(sub, flow.FeatureOptions{
					NewPeerGrace: testConfig().NewPeerGrace,
				}, res.Window)
				want, err := cd.Detect(src)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Detections[1]
				if !reflect.DeepEqual(got.Suspects, want.Suspects) {
					t.Errorf("%v: community suspects = %v, want %v", res.Window,
						got.Suspects.Sorted(), want.Suspects.Sorted())
				}
				gr, wr := got.Community, want.Community
				if gr.GraphHosts != wr.GraphHosts || gr.GraphEdges != wr.GraphEdges ||
					len(gr.Communities) != len(wr.Communities) {
					t.Errorf("%v: graph summary %d/%d/%d, want %d/%d/%d", res.Window,
						gr.GraphHosts, gr.GraphEdges, len(gr.Communities),
						wr.GraphHosts, wr.GraphEdges, len(wr.Communities))
				}
			}
		})
	}
}

// Per-window instrumentation (RunWindow reports it): the stage and one
// child per detector, the window counters and gauges, and one suspects
// gauge per detector. internal/dist checks the same set at the
// coordinator, under "engine/globalpass".
func TestEnsembleEngineMetrics(t *testing.T) {
	base := baseTime()
	records := synthStream(rand.New(rand.NewSource(55)), base, 2*time.Hour)

	t.Run("single-process", func(t *testing.T) {
		reg := metrics.New()
		coreCfg := testConfig()
		coreCfg.Metrics = reg
		// Flush ends the feed inside the second window: one Partial.
		results := run(t, Config{
			Window: time.Hour, Origin: base, Shards: 2, Core: coreCfg,
			Detectors: detectorPair(t, coreCfg),
		}, records)
		windows := int64(len(results))
		if windows != 2 {
			t.Fatalf("emitted %d windows, want 2", windows)
		}
		snap := reg.TakeSnapshot()
		ran := map[string]int64{} // stage → times run
		for _, s := range snap.Stages {
			ran[s.Name] = s.Count
		}
		for _, stage := range []string{
			"engine/detect",
			"engine/detect/" + core.PaperName,
			"engine/detect/" + community.Name,
			"community/build", "community/propagate", "community/score",
		} {
			if got := ran[stage]; got != windows {
				t.Errorf("stage %s ran %d times, want %d", stage, got, windows)
			}
		}
		last := results[len(results)-1]
		if !last.Partial || results[0].Partial {
			t.Fatalf("Partial marks = %v, %v; want false, true", results[0].Partial, last.Partial)
		}
		for name, want := range map[string]int64{
			"engine/windows":         windows,
			"engine/windows/partial": 1,
		} {
			if got := snap.Counters[name]; got != want {
				t.Errorf("counter %s = %d, want %d", name, got, want)
			}
		}
		for name, want := range map[string]int{
			"engine/window_index":               last.Index,
			"engine/window_hosts":               last.Hosts,
			"engine/window_suspects":            len(last.Detection.Suspects),
			"engine/suspects/" + core.PaperName: len(last.Detections[0].Suspects),
			"engine/suspects/" + community.Name: len(last.Detections[1].Suspects),
		} {
			if got := snap.Gauges[name]; got != int64(want) {
				t.Errorf("gauge %s = %d, want %d", name, got, want)
			}
		}
	})
}
