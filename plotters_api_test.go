package plotters_test

import (
	"bytes"
	"testing"
	"time"

	"plotters"
)

// TestPublicAPIEndToEnd drives the whole library through its exported
// surface only: synthesize, serialize, reload, label, detect, score.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := plotters.DefaultDatasetConfig(11)
	cfg.Days = 1
	cfg.DayTemplate.CampusHosts = 130
	cfg.DayTemplate.Gnutella = 4
	cfg.DayTemplate.EMule = 4
	cfg.DayTemplate.BitTorrent = 6
	cfg.DayTemplate.PeerNetworkNodes = 1000
	cfg.Storm.Bots = 8
	cfg.Storm.OverlayNodes = 600
	cfg.Storm.SeedPeers = 60
	cfg.Nugache.Bots = 16
	cfg.Nugache.OverlayNodes = 400
	ds, err := plotters.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the day through the binary codec.
	var buf bytes.Buffer
	w, err := plotters.NewTraceWriter(&buf, "binary")
	if err != nil {
		t.Fatal(err)
	}
	if err := plotters.WriteAllTrace(w, ds.Days[0].Records); err != nil {
		t.Fatal(err)
	}
	r, err := plotters.NewTraceReader(&buf, "binary")
	if err != nil {
		t.Fatal(err)
	}
	records, err := plotters.ReadAllTrace(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(ds.Days[0].Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(records), len(ds.Days[0].Records))
	}

	// Ground truth from payloads.
	traders := plotters.LabelTraders(records, plotters.IsInternal)
	if len(traders) == 0 {
		t.Fatal("no traders labeled")
	}

	// Overlay and detect.
	day, err := plotters.OverlayDay(ds.Days[0], ds, 3, plotters.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := day.Analysis.FindPlotters()
	if err != nil {
		t.Fatal(err)
	}
	rates := plotters.Score(res.Suspects, day.Analysis.Hosts(), day.Storm.Union(day.Nugache))
	if rates.Plotters != 24 {
		t.Errorf("plotters in truth = %d, want 24", rates.Plotters)
	}
	if rates.TP == 0 {
		t.Error("no bots detected at all")
	}
	if rates.FPR() > 0.2 {
		t.Errorf("FPR = %v, too high", rates.FPR())
	}
}

func TestPublicAPIFeatureExtraction(t *testing.T) {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	host, err := plotters.ParseIP("128.2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	records := []plotters.Record{{
		Src: host, Dst: 99, SrcPort: 4000, DstPort: 80, Proto: plotters.TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 500, DstBytes: 100,
		State: plotters.StateEstablished,
	}}
	feats := plotters.ExtractFeatures(records, plotters.FeatureOptions{})
	if feats[host] == nil || feats[host].AvgBytesPerFlow() != 500 {
		t.Errorf("features = %+v", feats[host])
	}
	if !plotters.IsInternal(host) {
		t.Error("128.2.0.1 should be internal")
	}
	w := plotters.CollectionWindow(start)
	if w.Duration() != 6*time.Hour {
		t.Errorf("window = %v", w.Duration())
	}
	sn, err := plotters.ParseSubnet("128.2.0.0/16")
	if err != nil || !sn.Contains(host) {
		t.Error("subnet parsing broken")
	}
}

func TestPublicAPIEvasion(t *testing.T) {
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	var records []plotters.Record
	for i := 0; i < 20; i++ {
		records = append(records, plotters.Record{
			Src: 1, Dst: 2, SrcPort: 4000, DstPort: 80, Proto: plotters.TCP,
			Start: start.Add(time.Duration(i) * time.Minute), End: start.Add(time.Duration(i)*time.Minute + time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 10,
			State: plotters.StateEstablished,
		})
	}
	inflated, err := plotters.InflateVolume(records, 2)
	if err != nil || inflated[0].SrcBytes != 200 {
		t.Errorf("InflateVolume: %v, %v", inflated[0].SrcBytes, err)
	}
	if f := plotters.RequiredVolumeFactor(100, 500); f != 5 {
		t.Errorf("RequiredVolumeFactor = %v", f)
	}
	if f := plotters.RequiredChurnFactor(10, 100, 0.9); f <= 1 {
		t.Errorf("RequiredChurnFactor = %v", f)
	}
}
