package checkpoint_test

import (
	"math/rand"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/collector"
	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
)

func baseTime() time.Time {
	return time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
}

// testEngineConfig exercises every checkpointing-relevant engine
// feature: sliding windows (pane ring), skew (reorder buffers), sharding,
// and carried first-seen anchors.
func testEngineConfig() engine.Config {
	cc := core.DefaultConfig()
	cc.MinInterstitialSamples = 4
	return engine.Config{
		Window:         time.Hour,
		Slide:          20 * time.Minute,
		Shards:         3,
		MaxSkew:        2 * time.Minute,
		DropLate:       true,
		CarryFirstSeen: true,
		Core:           cc,
	}
}

// synthStream builds a start-ordered stream over [base, base+span): a
// few periodic machine hosts (plotter-shaped) and a crowd of randomized
// human hosts, with mild reordering inside the skew tolerance so
// snapshots catch records in the reorder buffers.
func synthStream(rng *rand.Rand, base time.Time, span time.Duration) []flow.Record {
	var out []flow.Record
	add := func(src, dst flow.IP, at time.Time, bytes uint64, state flow.ConnState) {
		out = append(out, flow.Record{
			Src: src, Dst: dst, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: bytes, DstBytes: 100,
			State: state,
		})
	}
	for h := flow.IP(1); h <= 3; h++ {
		for at := base.Add(time.Duration(h) * time.Second); at.Before(base.Add(span)); at = at.Add(35 * time.Second) {
			state := flow.StateFailed
			if rng.Intn(4) == 0 {
				state = flow.StateEstablished
			}
			add(h, flow.IP(200+uint32(h)), at, 40, state)
		}
	}
	for h := flow.IP(10); h < 25; h++ {
		at := base.Add(time.Duration(rng.Intn(600)) * time.Second)
		for at.Before(base.Add(span)) {
			state := flow.StateEstablished
			if rng.Intn(5) == 0 {
				state = flow.StateFailed
			}
			add(h, flow.IP(100+uint32(rng.Intn(40))), at, uint64(500+rng.Intn(20000)), state)
			at = at.Add(time.Duration(20+rng.Intn(400)) * time.Second)
		}
	}
	flow.SortByStart(out)
	// Mild reordering within the skew tolerance: swap neighbors whose
	// starts are close, so the extractors' reorder buffers are non-empty
	// when a snapshot lands.
	for i := len(out) - 2; i >= 0; i-- {
		if rng.Intn(3) == 0 && out[i+1].Start.Sub(out[i].Start) < 30*time.Second {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

// windowKey is the comparable essence of one emitted window.
type windowKey struct {
	Index    int
	Window   string
	Hosts    int
	Records  int
	Partial  bool
	Suspects string
}

func summarize(res *engine.Result) windowKey {
	sus := ""
	for _, ip := range res.Detection.Suspects.Sorted() {
		sus += ip.String() + " "
	}
	return windowKey{
		Index:    res.Index,
		Window:   res.Window.String(),
		Hosts:    res.Hosts,
		Records:  res.Records,
		Partial:  res.Partial,
		Suspects: sus,
	}
}

func collect(out *[]windowKey) func(*engine.Result) error {
	return func(res *engine.Result) error {
		*out = append(*out, summarize(res))
		return nil
	}
}

// newTestEngine builds a testEngineConfig engine whose checkpoint state,
// if any, lives in dir.
func newTestEngine(t testing.TB, dir string, out *[]windowKey) *engine.WindowedDetector {
	t.Helper()
	var emit func(*engine.Result) error
	if out != nil {
		emit = collect(out)
	}
	cfg := testEngineConfig()
	cfg.StateDir = dir
	eng, err := engine.New(cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// populatedSnapshot runs a stream partway into an engine and snapshots
// it, returning a state-rich Snapshot (pending records, anchors, pane
// ring, exporter entries all non-empty).
func populatedSnapshot(t testing.TB) *checkpoint.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	records := synthStream(rng, baseTime(), 2*time.Hour)
	eng := newTestEngine(t, "", nil)
	for i := range records {
		if err := eng.Add(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	meta := checkpoint.EngineMeta(eng)
	meta.Created = baseTime().Add(2 * time.Hour)
	meta.WALSeq = uint64(len(records))
	return &checkpoint.Snapshot{
		Meta:   meta,
		Engine: eng.State(),
		Exporters: []collector.SequenceState{
			{Exporter: "10.0.0.1:2055", Engine: 0, V5Seen: true, V5Next: 1234},
			{Exporter: "10.0.0.2:2055", Engine: 7, V5Seen: true, V5Next: 99, V9Seen: true, V9Next: 1},
		},
	}
}
