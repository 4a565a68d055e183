package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
)

// forwardingDetector embeds the paper detector and only forwards Detect
// — the shape of any decorator (timing, tracing) put around it.
type forwardingDetector struct{ *core.PaperDetector }

func (f forwardingDetector) Detect(src flow.FeatureSource) (*core.Detection, error) {
	return f.PaperDetector.Detect(src)
}

// windowSummaries cuts records into tumbling windows from base and runs
// the shard-local phase over each as shard 0 of 1.
func windowSummaries(t *testing.T, records []flow.Record, base time.Time, windows int, cfg core.Config) []*core.ShardSummary {
	t.Helper()
	sums := make([]*core.ShardSummary, windows)
	for i := range sums {
		w := flow.Window{From: base.Add(time.Duration(i) * time.Hour), To: base.Add(time.Duration(i+1) * time.Hour)}
		src := flow.ExtractFeatureSet(w.Filter(records), flow.FeatureOptions{NewPeerGrace: cfg.NewPeerGrace}, w)
		sum, err := core.LocalPass(src, cfg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = sum
	}
	return sums
}

// runDistributed offers one shard's per-window summaries to a fresh
// one-shard coordinator-side detector and returns the emitted results.
func runDistributed(t *testing.T, cfg Config, sums []*core.ShardSummary) []*Result {
	t.Helper()
	var results []*Result
	d, err := NewDistributed(cfg, 1, func(r *Result) error { results = append(results, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, sum := range sums {
		if _, err := d.Offer(0, i, sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Windows() != len(results) {
		t.Errorf("Windows() = %d, emitted %d", d.Windows(), len(results))
	}
	return results
}

// A detector that wraps the paper pipeline must get the same verdict at
// a coordinator as the bare detector: the shards' θ_hm sketches ride the
// merged summary's feature source, not a side channel keyed on the
// detector's Go type.
func TestDistributedWrappedDetector(t *testing.T) {
	base := baseTime()
	records := synthStream(rand.New(rand.NewSource(56)), base, time.Hour)
	coreCfg := testConfig()
	sums := windowSummaries(t, records, base, 1, coreCfg)
	pd, err := core.NewPaperDetector(coreCfg)
	if err != nil {
		t.Fatal(err)
	}

	bare := runDistributed(t, Config{Core: coreCfg}, sums)
	wrapped := runDistributed(t, Config{Core: coreCfg, Detectors: []core.Detector{forwardingDetector{pd}}}, sums)
	if len(bare) != 1 || len(wrapped) != 1 {
		t.Fatalf("emitted %d bare and %d wrapped windows, want 1 each", len(bare), len(wrapped))
	}
	want, got := bare[0].Detection, wrapped[0].Detection
	if want.HM.Clustered < 2 || len(want.Suspects) == 0 {
		t.Fatalf("bare detector clustered %d hosts and flagged %d — the stream does not exercise θ_hm", want.HM.Clustered, len(want.Suspects))
	}
	if got.HM.Clustered != want.HM.Clustered || got.HM.Skipped != want.HM.Skipped {
		t.Errorf("wrapped detector clustered/skipped %d/%d hosts, bare %d/%d", got.HM.Clustered, got.HM.Skipped, want.HM.Clustered, want.HM.Skipped)
	}
	if !reflect.DeepEqual(got.HM.Clusters, want.HM.Clusters) {
		t.Errorf("wrapped detector's θ_hm clusters differ:\ngot  %+v\nwant %+v", got.HM.Clusters, want.HM.Clusters)
	}
	detectionEqual(t, "wrapped", got, want)

	// And both equal the single-process engine over the same records.
	single := run(t, Config{Window: time.Hour, Origin: base, Core: coreCfg}, records)
	if len(single) != 1 {
		t.Fatalf("single-process engine emitted %d windows, want 1", len(single))
	}
	detectionEqual(t, "single-process", want, single[0].Detection)
}
