package dist

import (
	"testing"
	"time"

	"plotters/internal/metrics"
)

// A shard worker seals windows and ships summaries; it detects nothing.
// Its "engine/detect" stage times the local pass once per summary shipped
// (the stage the distributed benchmark charges to the shards), and none
// of the per-window detection instruments appear on its side: the window
// counters count the coordinator's windows alone.
func TestShardWorkerInstruments(t *testing.T) {
	records := clusterCorpus()
	// A third window, cut off half way: the feed ends inside it.
	for _, r := range records {
		if r.Start.Before(clusterT0.Add(30 * time.Minute)) {
			r.Start, r.End = r.Start.Add(2*time.Hour), r.End.Add(2*time.Hour)
			records = append(records, r)
		}
	}
	reg := metrics.New()
	ecfg := clusterEngineConfig()
	ecfg.Core.Metrics = reg
	var out collector
	cl, err := NewDistCluster(CoordinatorConfig{Shards: 2, Engine: ecfg}, out.emit)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := range records {
		if err := cl.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range cl.Workers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coordinator.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := reg.TakeSnapshot()
	shipped := snap.Counters["dist/summaries"]
	if shipped != 6 {
		t.Fatalf("the coordinator took %d summaries, want 3 windows × 2 shards", shipped)
	}
	for i, w := range cl.Workers {
		if n := w.Engine().Windows(); n != 3 {
			t.Errorf("shard %d: Windows() = %d, want the 3 summaries it shipped", i, n)
		}
	}
	ran := map[string]int64{} // stage → times run
	for _, s := range snap.Stages {
		ran[s.Name] = s.Count
	}
	for _, stage := range []string{"engine/detect", "localpass"} {
		if n := ran[stage]; n != shipped {
			t.Errorf("stage %s ran %d times, want once per summary (%d)", stage, n, shipped)
		}
	}
	results := out.get()
	if len(results) != 3 || results[0].Partial || results[1].Partial || !results[2].Partial {
		t.Fatalf("%d results; want 3 with only the last Partial", len(results))
	}
	if n := snap.Counters["engine/windows"]; n != 3 {
		t.Errorf("engine/windows = %d, want the coordinator's 3", n)
	}
	if n := snap.Counters["engine/windows/partial"]; n != 1 {
		t.Errorf("engine/windows/partial = %d, want the coordinator's 1", n)
	}
	if _, ok := snap.Gauges["engine/suspects/localpass"]; ok {
		t.Error("engine/suspects/localpass reported: a shard has no verdict")
	}
	if _, ok := ran["engine/detect/localpass"]; ok {
		t.Error("engine/detect/localpass reported: it timed the localpass stage twice")
	}
}
