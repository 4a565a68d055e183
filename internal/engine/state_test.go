package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
)

// windowSummary is the comparable essence of one emitted window for
// resume-equivalence checks: everything the operator sees, stage
// survivors and thresholds included.
type windowSummary struct {
	Index      int
	Window     string
	Hosts      int
	Records    int
	Partial    bool
	Reduction  []flow.IP
	Volume     []flow.IP
	Churn      []flow.IP
	Suspects   []flow.IP
	Thresholds [4]float64
}

func summarize(res *Result) windowSummary {
	det := res.Detection
	return windowSummary{
		Index:     res.Index,
		Window:    res.Window.String(),
		Hosts:     res.Hosts,
		Records:   res.Records,
		Partial:   res.Partial,
		Reduction: det.Reduction.Kept.Sorted(),
		Volume:    det.Volume.Kept.Sorted(),
		Churn:     det.Churn.Kept.Sorted(),
		Suspects:  det.Suspects.Sorted(),
		Thresholds: [4]float64{
			det.Reduction.Threshold, det.Volume.Threshold,
			det.Churn.Threshold, det.HM.Threshold,
		},
	}
}

func collectSummaries(out *[]windowSummary) func(*Result) error {
	return func(res *Result) error {
		*out = append(*out, summarize(res))
		return nil
	}
}

// resumeConfig exercises the checkpointing-relevant engine features:
// skew (pending lists) and sharding.
func resumeConfig(window, slide time.Duration) Config {
	return Config{
		Window:   window,
		Slide:    slide,
		Shards:   3,
		MaxSkew:  2 * time.Minute,
		DropLate: true,
		Core:     testConfig(),
	}
}

// Snapshotting a running detector mid-stream and restoring into a fresh
// one must continue the window sequence exactly where the original
// would have: same indices, same bounds, same per-stage survivors and
// thresholds. This is the in-memory core of the crash-recovery
// guarantee (internal/checkpoint adds the bytes and the WAL replay).
func TestEngineStateResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name          string
		window, slide time.Duration
	}{
		{"tumbling", time.Hour, 0},
		{"sliding", time.Hour, 20 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			base := baseTime()
			records := synthStream(rng, base, 5*time.Hour)

			var uninterrupted []windowSummary
			ref, err := New(resumeConfig(tc.window, tc.slide), collectSummaries(&uninterrupted))
			if err != nil {
				t.Fatal(err)
			}
			for i := range records {
				if err := ref.Add(&records[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Flush(); err != nil {
				t.Fatal(err)
			}

			for _, cut := range []int{1, len(records) / 3, len(records) / 2, len(records) - 1} {
				var before []windowSummary
				first, err := New(resumeConfig(tc.window, tc.slide), collectSummaries(&before))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cut; i++ {
					if err := first.Add(&records[i]); err != nil {
						t.Fatal(err)
					}
				}
				st := first.State()

				var after []windowSummary
				resumed, err := New(resumeConfig(tc.window, tc.slide), collectSummaries(&after))
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				if resumed.Windows() != first.Windows() || resumed.Dropped() != first.Dropped() {
					t.Fatalf("cut %d: restored counters differ: windows %d/%d dropped %d/%d",
						cut, resumed.Windows(), first.Windows(), resumed.Dropped(), first.Dropped())
				}
				for i := cut; i < len(records); i++ {
					if err := resumed.Add(&records[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := resumed.Flush(); err != nil {
					t.Fatal(err)
				}

				combined := append(append([]windowSummary(nil), before...), after...)
				if !reflect.DeepEqual(combined, uninterrupted) {
					t.Fatalf("cut %d: resumed window sequence diverged:\nresumed       %+v\nuninterrupted %+v",
						cut, combined, uninterrupted)
				}
			}
		})
	}
}

// A snapshot keeps the grid it was taken on: restored into an engine
// with a zero Origin, one whose origin lies off the epoch grid (as an
// older build's first-record origin does) carries on exactly as the
// engine that took it.
func TestZeroOriginRestoreKeepsSnapshotOrigin(t *testing.T) {
	records := synthStream(rand.New(rand.NewSource(80)), baseTime(), 3*time.Hour)
	old := resumeConfig(time.Hour, 20*time.Minute)
	old.Origin = baseTime().Add(-7 * time.Minute)
	run := func(d *WindowedDetector, records []flow.Record) {
		t.Helper()
		for i := range records {
			if err := d.Add(&records[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var want, got []windowSummary
	ref, err := New(old, collectSummaries(&want))
	if err != nil {
		t.Fatal(err)
	}
	run(ref, records)
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	first, err := New(old, collectSummaries(&got))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(records) / 2
	run(first, records[:cut])
	resumed, err := New(resumeConfig(time.Hour, 20*time.Minute), collectSummaries(&got))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(first.State()); err != nil {
		t.Fatal(err)
	}
	run(resumed, records[cut:])
	if err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed under a zero Origin:\n%+v\nthe snapshotted grid's run:\n%+v", got, want)
	}
}

// RestoreState must reject a detector that already ingested records and
// a snapshot whose pane ring does not fit the window geometry.
func TestEngineRestoreStateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	records := synthStream(rng, baseTime(), time.Hour)
	d, err := New(resumeConfig(time.Hour, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&records[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreState(d.State()); err == nil {
		t.Fatal("RestoreState on a started detector did not fail")
	}

	fresh, err := New(resumeConfig(time.Hour, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{
		Store:  flow.NewShardedExtractorSkew(flow.FeatureOptions{}, 3, 0).State(),
		Recent: make([]*flow.PaneState, 2), // tumbling allows at most 1
	}
	if err := fresh.RestoreState(st); err == nil {
		t.Fatal("oversized pane ring did not fail")
	}
	if err := fresh.RestoreState(&State{}); err == nil {
		t.Fatal("snapshot without store state did not fail")
	}
}

// Flush must mark a window cut short by the end of the feed as Partial,
// and leave windows whose nominal end the frontier already passed
// unmarked.
func TestFlushMarksPartialWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	base := baseTime()
	records := synthStream(rng, base, 90*time.Minute) // 1.5 windows

	var got []windowSummary
	d, err := New(resumeConfig(time.Hour, 0), collectSummaries(&got))
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
	if len(got) != 2 {
		t.Fatalf("expected 2 windows, got %d", len(got))
	}
	if got[0].Partial {
		t.Error("completed window 0 marked partial")
	}
	if !got[1].Partial {
		t.Error("flushed half-window not marked partial")
	}
}

// paneSeal is what TestPaneEndCacheGoldens compares: which windows were
// emitted, over what, holding how much.
type paneSeal struct {
	Index    int
	From, To int // minutes after the origin
	Hosts    int
	Records  int
	Partial  bool
}

// Add decides "did this record end a pane?" from a cached boundary that
// every write of the pane cursor must refresh: the first record, the
// fast-forward over a silent stretch, each seal, and a restore. The
// stream below crosses all four — records one nanosecond short of and
// exactly on a pane's end + MaxSkew, silences many panes long, a
// State → RestoreState hop inside a pane and another right after a
// fast-forward — and the windows it emits are pinned to what the
// engine emitted when it recomputed the boundary for every record.
func TestPaneEndCacheGoldens(t *testing.T) {
	const skew = 30 * time.Second
	base := baseTime()
	var stream []flow.Record
	restoreAt := map[int]bool{}
	at := func(host flow.IP, off time.Duration) {
		stream = append(stream, flow.Record{
			Src: host, Dst: 900 + host, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: base.Add(off), End: base.Add(off + time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 100, State: flow.StateEstablished,
		})
	}
	burst := func(from, to time.Duration, hosts int) {
		for off, i := from, 0; off < to; off, i = off+20*time.Second, i+1 {
			at(flow.IP(1+i%hosts), off)
		}
	}
	burst(3*time.Minute, 10*time.Minute, 4) // the first record opens pane 0 mid-pane
	at(7, 10*time.Minute+skew-1)            // one nanosecond short: pane 0 stays open
	at(8, 10*time.Minute+skew)              // exactly on it: pane 0 seals
	burst(11*time.Minute, 14*time.Minute, 3)
	restoreAt[len(stream)] = true // inside pane 1, records buffered
	burst(14*time.Minute, 19*time.Minute, 3)
	at(1, 47*time.Minute) // seals pane 1, then fast-forwards 2 → 4
	restoreAt[len(stream)] = true
	burst(47*time.Minute+time.Second, 52*time.Minute, 5)
	at(2, 3*time.Hour+skew-1) // pane 5 seals, fast-forward stops one pane short…
	at(3, 3*time.Hour+skew)   // …and this moves it on
	burst(3*time.Hour+time.Minute, 3*time.Hour+12*time.Minute, 2)

	want := map[string][]paneSeal{
		"tumbling": {
			{0, 0, 10, 4, 21, false}, {1, 10, 20, 5, 26, false},
			{4, 40, 50, 5, 10, false}, {5, 50, 60, 5, 6, false},
			{18, 180, 190, 3, 29, false}, {19, 190, 200, 2, 6, true},
		},
		"sliding": {
			{0, 0, 10, 4, 21, false}, {1, 5, 15, 6, 29, false}, {2, 10, 20, 5, 26, false}, {3, 15, 25, 3, 12, false},
			{8, 40, 50, 5, 10, false}, {9, 45, 55, 5, 16, false}, {10, 50, 60, 5, 6, false},
			{35, 175, 185, 3, 14, false}, {36, 180, 190, 3, 29, false}, {37, 185, 195, 2, 21, true},
		},
	}
	for name, slide := range map[string]time.Duration{"tumbling": 0, "sliding": 5 * time.Minute} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Window: 10 * time.Minute, Slide: slide, Origin: base, Shards: 2,
				MaxSkew: skew, DropLate: true, Core: testConfig(),
			}
			var got []paneSeal
			emit := func(res *Result) error {
				from, to := res.Window.From.Sub(base), res.Window.To.Sub(base)
				got = append(got, paneSeal{res.Index, int(from / time.Minute), int(to / time.Minute), res.Hosts, res.Records, res.Partial})
				return nil
			}
			d, err := New(cfg, emit)
			if err != nil {
				t.Fatal(err)
			}
			for i := range stream {
				if restoreAt[i] {
					st := d.State()
					if d, err = New(cfg, emit); err != nil {
						t.Fatal(err)
					}
					if err := d.RestoreState(st); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Add(&stream[i]); err != nil {
					t.Fatal(err)
				}
				if fresh := d.paneEnd().UnixNano() + int64(skew); d.sealAt != fresh {
					t.Fatalf("record %d: cached boundary %d is stale, pane %d ends at %d", i, d.sealAt, d.paneIdx, fresh)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[name]) {
				t.Errorf("emitted windows:\n got %+v\nwant %+v", got, want[name])
			}
		})
	}
}
