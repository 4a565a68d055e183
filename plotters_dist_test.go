// Distributed-equivalence tests: the shard-local / global split of the
// pipeline, run as a 4-shard deployment (in-process pipes and real TCP
// loopback), must reproduce testdata/findplotters_golden.json bit for
// bit — suspect set, stage survivor counts, thresholds — including when
// shard connections are killed and re-established mid-run.
package plotters_test

import (
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"plotters"
)

const distShards = 4

func distEngineConfig(w plotters.Window, cfg plotters.Config) plotters.EngineConfig {
	return plotters.EngineConfig{
		Window:   w.Duration(),
		Origin:   w.From,
		Internal: plotters.IsInternal,
		Core:     cfg,
	}
}

// forwardingDetector embeds the paper detector and only forwards Detect
// — the shape of any decorator (timing, tracing) put around it.
type forwardingDetector struct{ *plotters.PaperDetector }

func (f forwardingDetector) Detect(src plotters.FeatureSource) (*plotters.Detection, error) {
	return f.PaperDetector.Detect(src)
}

// distGoldenCheck compares one distributed window result against the
// pinned golden outcome.
func distGoldenCheck(t *testing.T, day *plotters.DayEval, results []*plotters.WindowResult) {
	t.Helper()
	if len(results) != 1 {
		t.Fatalf("got %d windows, want 1", len(results))
	}
	res := results[0]
	if res.Partial {
		t.Error("fully-fed window emitted as Partial")
	}
	if res.Detection == nil {
		t.Fatal("window carries no paper-pipeline result")
	}
	compareGolden(t, resultToGolden(day, res.Detection), loadGolden(t))
}

// TestDistributedGolden runs day 0 of the seed-42 corpus through a
// 4-shard deployment in three transports/failure modes and pins each
// against the single-process golden file.
func TestDistributedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis takes ~15s; skipped in -short mode")
	}
	ds := goldenDataset(t)
	cfg := plotters.DefaultConfig()
	day, err := plotters.OverlayDay(ds.Days[0], ds, 43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := ds.Days[0].Window
	ecfg := distEngineConfig(w, cfg)

	paper, err := plotters.NewPaperDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name      string
		detectors []plotters.Detector
	}{
		{"simnet", nil},
		// A decorator around the paper detector must reach the shards'
		// θ_hm sketches exactly as the bare detector does.
		{"simnet-wrapped-detector", []plotters.Detector{forwardingDetector{paper}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			rcfg := ecfg
			rcfg.Detectors = row.detectors
			var results []*plotters.WindowResult
			cl, err := plotters.NewDistCluster(plotters.CoordinatorConfig{Shards: distShards, Engine: rcfg},
				func(r *plotters.WindowResult) error { results = append(results, r); return nil })
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := range day.Records {
				if err := cl.Add(&day.Records[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.AdvanceTo(w.To); err != nil {
				t.Fatal(err)
			}
			if err := cl.Drain(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			distGoldenCheck(t, day, results)
			for _, ss := range cl.Coordinator.ShardSeqs() {
				if !ss.Seen {
					t.Errorf("shard %d never connected", ss.Shard)
				}
			}
		})
	}

	t.Run("tcp", func(t *testing.T) {
		var results []*plotters.WindowResult
		coord, err := plotters.NewCoordinator(plotters.CoordinatorConfig{Shards: distShards, Engine: ecfg},
			func(r *plotters.WindowResult) error { results = append(results, r); return nil })
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		addr, err := coord.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers := make([]*plotters.ShardWorker, distShards)
		for i := range workers {
			workers[i], err = plotters.NewShardWorker(plotters.ShardWorkerConfig{
				Shard:  i,
				Shards: distShards,
				Engine: ecfg,
				Dial:   func() (net.Conn, error) { return net.Dial("tcp", addr.String()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer workers[i].Close()
		}
		for i := range day.Records {
			r := &day.Records[i]
			if err := workers[plotters.ShardOf(r.Src, distShards)].Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, wk := range workers {
			if err := wk.AdvanceTo(w.To); err != nil {
				t.Fatal(err)
			}
		}
		for _, wk := range workers {
			if err := wk.Drain(30 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		distGoldenCheck(t, day, results)
	})

	t.Run("kill-and-reconnect", func(t *testing.T) {
		var results []*plotters.WindowResult
		cl, err := plotters.NewDistCluster(plotters.CoordinatorConfig{Shards: distShards, Engine: ecfg},
			func(r *plotters.WindowResult) error { results = append(results, r); return nil })
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// Feed the first half, punctuate mid-window (each worker sends a
		// watermark frame, establishing its connection), then kill every
		// connection and feed the rest: the window's summaries must
		// arrive over re-established connections with the outbox
		// replayed, and nothing about the outcome may move.
		mid := w.From.Add(w.Duration() / 2)
		i := 0
		for ; i < len(day.Records) && day.Records[i].Start.Before(mid); i++ {
			if err := cl.Add(&day.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.AdvanceTo(mid); err != nil {
			t.Fatal(err)
		}
		for _, wk := range cl.Workers {
			wk.DropConnection()
		}
		for ; i < len(day.Records); i++ {
			if err := cl.Add(&day.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.AdvanceTo(w.To); err != nil {
			t.Fatal(err)
		}
		if err := cl.Drain(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		distGoldenCheck(t, day, results)
		reconnected := 0
		for _, ss := range cl.Coordinator.ShardSeqs() {
			if ss.Connects >= 2 {
				reconnected++
			}
		}
		if reconnected == 0 {
			t.Error("no shard reconnected — the kill did not exercise the resend path")
		}
	})
}

// Property: any host-hash shard split of the seed-42 day's features,
// local-passed per shard and merged, equals the single-process shard
// summary field for field — the invariant the distributed pipeline's
// bit-identity rests on.
func TestShardSplitMergeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis takes ~15s; skipped in -short mode")
	}
	ds := goldenDataset(t)
	cfg := plotters.DefaultConfig()
	day, err := plotters.OverlayDay(ds.Days[0], ds, 43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := plotters.ExtractFeatureSet(day.Records, plotters.FeatureOptions{
		Hosts:        plotters.IsInternal,
		NewPeerGrace: cfg.NewPeerGrace,
	}, plotters.Window{})
	single, err := plotters.LocalPass(src, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	property := func(raw uint8) bool {
		shards := int(raw)%16 + 1
		parts := make([]map[plotters.IP]*plotters.HostFeatures, shards)
		cparts := make([]map[plotters.IP][]plotters.IP, shards)
		for i := range parts {
			parts[i] = make(map[plotters.IP]*plotters.HostFeatures)
			cparts[i] = make(map[plotters.IP][]plotters.IP)
		}
		contacts := src.Contacts()
		for h, f := range src.Features() {
			s := plotters.ShardOf(h, shards)
			parts[s][h] = f
			if c := contacts[h]; c != nil {
				cparts[s][h] = c
			}
		}
		sums := make([]*plotters.ShardSummary, shards)
		for i := range parts {
			part := plotters.NewFeatureSet(parts[i], src.Window()).WithContacts(cparts[i])
			sums[i], err = plotters.LocalPass(part, cfg, i, shards)
			if err != nil {
				t.Logf("shards=%d shard=%d: %v", shards, i, err)
				return false
			}
		}
		merged, err := plotters.MergeShardSummaries(sums)
		if err != nil {
			t.Logf("shards=%d: merge: %v", shards, err)
			return false
		}
		if !reflect.DeepEqual(merged.Hosts, single.Hosts) {
			t.Logf("shards=%d: merged host summaries differ from single-process", shards)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
