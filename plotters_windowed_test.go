// Equivalence tests for the continuous windowed engine: a detection
// window streamed through WindowedDetector must be indistinguishable
// from a batch FindPlotters run over the same records — the golden
// regression file pins the batch outcome, so the engine must reproduce
// it bit for bit.
package plotters_test

import (
	"reflect"
	"testing"

	"plotters"
)

// One window of the canonical seed-42 corpus through the windowed
// engine reproduces testdata/findplotters_golden.json exactly:
// suspects, survivor counts, and thresholds.
func TestWindowedDetectorMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis takes ~15s; skipped in -short mode")
	}
	ds := goldenDataset(t)
	cfg := plotters.DefaultConfig()
	// Overlay day 0 exactly as the evaluation suite does (suite seed 43,
	// day offset 0).
	day, err := plotters.OverlayDay(ds.Days[0], ds, 43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := ds.Days[0].Window

	var results []*plotters.WindowResult
	eng, err := plotters.NewWindowedDetector(plotters.EngineConfig{
		Window:   w.Duration(),
		Origin:   w.From,
		Internal: plotters.IsInternal,
		Core:     cfg,
	}, func(r *plotters.WindowResult) error { results = append(results, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range day.Records {
		if err := eng.Add(&day.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.AdvanceTo(w.To); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d windows, want 1", len(results))
	}
	res := results[0]
	if res.Window != w {
		t.Errorf("window bounds = %v, want %v", res.Window, w)
	}
	internalRecords := 0
	for i := range day.Records {
		if plotters.IsInternal(day.Records[i].Src) {
			internalRecords++
		}
	}
	if res.Records != internalRecords {
		t.Errorf("window records = %d, want %d (internally initiated)", res.Records, internalRecords)
	}

	compareGolden(t, resultToGolden(day, res.Detection), loadGolden(t))

	// The engine window's features must equal the batch extraction
	// day.Analysis performed — same maps, bit for bit.
	if !reflect.DeepEqual(res.Detection.Analysis.Features(), day.Analysis.Features()) {
		t.Error("windowed features differ from batch extraction")
	}
}
