package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

func baseTime() time.Time {
	return time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
}

// testConfig is a pipeline config scaled down to the handful-of-hosts
// streams these tests synthesize.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MinInterstitialSamples = 4
	return cfg
}

// synthStream builds a start-ordered stream over [base, base+span): a
// few periodic "machine" hosts (fixed short timers, tiny failed flows —
// plotter-shaped) and a crowd of randomized "human" hosts.
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
	// Machine-timed hosts 1..3: one flow every ~40s to a tiny peer pool,
	// mostly failing.
	for h := flow.IP(1); h <= 3; h++ {
		period := 35 * time.Second
		for at := base.Add(time.Duration(h) * time.Second); at.Before(base.Add(span)); at = at.Add(period) {
			state := flow.StateFailed
			if rng.Intn(4) == 0 {
				state = flow.StateEstablished
			}
			add(h, flow.IP(200+uint32(h)), at, 40, state)
		}
	}
	// Human-ish hosts 10..24: random gaps, larger transfers, wide peer
	// sets, occasional failures.
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
	return out
}

// detectionEqual compares two pipeline outcomes stage by stage.
func detectionEqual(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Reduction.Kept, want.Reduction.Kept) ||
		got.Reduction.Threshold != want.Reduction.Threshold {
		t.Errorf("%s: reduction differs: got %v@%v want %v@%v", label,
			got.Reduction.Kept.Sorted(), got.Reduction.Threshold,
			want.Reduction.Kept.Sorted(), want.Reduction.Threshold)
	}
	if !reflect.DeepEqual(got.Volume.Kept, want.Volume.Kept) ||
		got.Volume.Threshold != want.Volume.Threshold {
		t.Errorf("%s: θ_vol differs", label)
	}
	if !reflect.DeepEqual(got.Churn.Kept, want.Churn.Kept) ||
		got.Churn.Threshold != want.Churn.Threshold {
		t.Errorf("%s: θ_churn differs", label)
	}
	if !reflect.DeepEqual(got.HM.Kept, want.HM.Kept) ||
		got.HM.Threshold != want.HM.Threshold {
		t.Errorf("%s: θ_hm differs", label)
	}
	if !reflect.DeepEqual(got.Suspects, want.Suspects) {
		t.Errorf("%s: suspects differ: got %v want %v", label,
			got.Suspects.Sorted(), want.Suspects.Sorted())
	}
}

// Tumbling windows over a continuous stream must each reproduce the
// batch pipeline over exactly that window's records.
func TestTumblingWindowsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base := baseTime()
	records := synthStream(rng, base, 3*time.Hour)

	var results []*Result
	d, err := New(Config{
		Window: time.Hour,
		Origin: base,
		Shards: 4,
		Core:   testConfig(),
	}, func(r *Result) error { results = append(results, r); return nil })
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

	if len(results) != 3 {
		t.Fatalf("got %d windows, want 3", len(results))
	}
	for i, res := range results {
		wantWindow := flow.Window{
			From: base.Add(time.Duration(i) * time.Hour),
			To:   base.Add(time.Duration(i+1) * time.Hour),
		}
		if res.Window != wantWindow {
			t.Errorf("window %d bounds = %v, want %v", i, res.Window, wantWindow)
		}
		if res.Index != i {
			t.Errorf("window %d index = %d", i, res.Index)
		}
		sub := wantWindow.Filter(records)
		want, err := core.FindPlotters(sub, nil, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		detectionEqual(t, res.Window.String(), res.Detection, want)
		if res.Records != len(sub) {
			t.Errorf("window %d records = %d, want %d", i, res.Records, len(sub))
		}
		if res.Hosts != len(want.Analysis.Features()) {
			t.Errorf("window %d hosts = %d, want %d", i, res.Hosts, len(want.Analysis.Features()))
		}
	}
	if d.Windows() != 3 {
		t.Errorf("Windows() = %d", d.Windows())
	}
}

// Sliding windows must reproduce the batch pipeline over each trailing
// Window of records, advancing every Slide.
func TestSlidingWindowsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	base := baseTime()
	records := synthStream(rng, base, 4*time.Hour)

	var results []*Result
	d, err := New(Config{
		Window: 2 * time.Hour,
		Slide:  time.Hour,
		Origin: base,
		Core:   testConfig(),
	}, func(r *Result) error { results = append(results, r); return nil })
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

	// Panes at 1h: windows [0,2h) [1h,3h) [2h,4h).
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 3", len(results))
	}
	for i, res := range results {
		wantWindow := flow.Window{
			From: base.Add(time.Duration(i) * time.Hour),
			To:   base.Add(time.Duration(i+2) * time.Hour),
		}
		if res.Window != wantWindow {
			t.Errorf("window %d bounds = %v, want %v", i, res.Window, wantWindow)
		}
		sub := wantWindow.Filter(records)
		want, err := core.FindPlotters(sub, nil, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		detectionEqual(t, res.Window.String(), res.Detection, want)
	}
}

// AdvanceTo must seal windows without needing a record past the
// boundary, and silent stretches must fast-forward without emitting
// empty windows.
func TestAdvanceToAndEmptyGap(t *testing.T) {
	base := baseTime()
	var results []*Result
	d, err := New(Config{
		Window: time.Hour,
		Origin: base,
		Core:   testConfig(),
	}, func(r *Result) error { results = append(results, r); return nil })
	if err != nil {
		t.Fatal(err)
	}

	mk := func(src, dst flow.IP, at time.Time) flow.Record {
		return flow.Record{
			Src: src, Dst: dst, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
			State: flow.StateEstablished,
		}
	}
	r1 := mk(1, 100, base.Add(10*time.Minute))
	if err := d.Add(&r1); err != nil {
		t.Fatal(err)
	}
	// Punctuate: the first window closes with no record past it.
	if err := d.AdvanceTo(base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Index != 0 {
		t.Fatalf("after AdvanceTo: %d results", len(results))
	}

	// A week of silence, then one more record: exactly one more window,
	// with the right slot index, no empty emissions in between.
	r2 := mk(1, 100, base.Add(7*24*time.Hour).Add(30*time.Minute))
	if err := d.Add(&r2); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("after gap: %d results, want 2", len(results))
	}
	if want := 7 * 24; results[1].Index != want {
		t.Errorf("post-gap window index = %d, want %d", results[1].Index, want)
	}
}

// Records more than MaxSkew late are dropped with ErrLateRecord; the
// stream keeps going.
func TestLateRecordDropped(t *testing.T) {
	base := baseTime()
	d, err := New(Config{
		Window:  time.Hour,
		Origin:  base,
		MaxSkew: time.Minute,
		Core:    testConfig(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(at time.Time) flow.Record {
		return flow.Record{
			Src: 1, Dst: 100, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
			State: flow.StateEstablished,
		}
	}
	r1 := mk(base.Add(30 * time.Minute))
	if err := d.Add(&r1); err != nil {
		t.Fatal(err)
	}
	// Advance past the first boundary plus skew: window [0, 1h) seals.
	r2 := mk(base.Add(61*time.Minute + time.Second))
	if err := d.Add(&r2); err != nil {
		t.Fatal(err)
	}
	// A record below the sealed boundary can no longer be windowed.
	late := mk(base.Add(50 * time.Minute))
	err = d.Add(&late)
	if !errors.Is(err, ErrLateRecord) {
		t.Fatalf("late record: err = %v, want ErrLateRecord", err)
	}
	r3 := mk(base.Add(62 * time.Minute))
	if err := d.Add(&r3); err != nil {
		t.Errorf("stream did not continue after a drop: %v", err)
	}
	if d.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", d.Dropped())
	}
}

// DropLate turns skew drops into a statistic: Add returns nil, the drop
// is visible in Dropped() and the "engine/drops" counter, and on-time
// records are unaffected — what a live collector needs when one packet
// straggles in after its window sealed.
func TestDropLateModeCountsNotErrors(t *testing.T) {
	base := baseTime()
	coreCfg := testConfig()
	coreCfg.Metrics = metrics.New()
	d, err := New(Config{
		Window:   time.Hour,
		Origin:   base,
		MaxSkew:  time.Minute,
		DropLate: true,
		Core:     coreCfg,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(at time.Time) flow.Record {
		return flow.Record{
			Src: 1, Dst: 100, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
			State: flow.StateEstablished,
		}
	}
	for _, at := range []time.Duration{30 * time.Minute, 61*time.Minute + time.Second} {
		r := mk(base.Add(at))
		if err := d.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // three stragglers below the sealed boundary
		late := mk(base.Add(50 * time.Minute))
		if err := d.Add(&late); err != nil {
			t.Fatalf("late record %d: err = %v, want nil in DropLate mode", i, err)
		}
	}
	if d.Dropped() != 3 {
		t.Errorf("Dropped() = %d, want 3", d.Dropped())
	}
	if n := coreCfg.Metrics.TakeSnapshot().Counters["engine/drops"]; n != 3 {
		t.Errorf("engine/drops = %d, want 3", n)
	}
	r := mk(base.Add(62 * time.Minute))
	if err := d.Add(&r); err != nil {
		t.Errorf("on-time record after drops: %v", err)
	}
	if n := coreCfg.Metrics.TakeSnapshot().Counters["engine/records"]; n != 3 {
		t.Errorf("engine/records = %d, want 3 (drops must not count as ingested)", n)
	}
}

// A late record must cost less than an accepted one. With DropLate (the
// live default) the reject path allocates nothing — an exporter clock
// step makes every record of a burst late, on the handler thread — and
// without it the surfaced error still says which record, how much skew
// was allowed, and where the frontier stood.
func TestLateRecordRejectPath(t *testing.T) {
	base := baseTime()
	mk := func(at time.Time) flow.Record {
		return flow.Record{
			Src: 1, Dst: 100, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
			State: flow.StateEstablished,
		}
	}
	frontier := base.Add(61*time.Minute + time.Second)
	late := mk(base.Add(50 * time.Minute))
	for _, dropLate := range []bool{true, false} {
		coreCfg := testConfig()
		coreCfg.Metrics = metrics.New()
		d, err := New(Config{
			Window:   time.Hour,
			Origin:   base,
			MaxSkew:  time.Minute,
			DropLate: dropLate,
			Core:     coreCfg,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []time.Time{base.Add(30 * time.Minute), frontier} {
			r := mk(at)
			if err := d.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
		if dropLate {
			if avg := testing.AllocsPerRun(100, func() {
				if err := d.Add(&late); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("DropLate: a rejected Add allocates %v times, want 0", avg)
			}
			// AllocsPerRun calls once to warm up, then 100 times.
			if n := coreCfg.Metrics.TakeSnapshot().Counters["engine/drops"]; n != 101 || d.Dropped() != 101 {
				t.Errorf("engine/drops = %d, Dropped() = %d, want 101 each", n, d.Dropped())
			}
			// The engine judges lateness against its frontier before the
			// store sees the record, so the store refuses none of them.
			if n := coreCfg.Metrics.TakeSnapshot().Counters["stream/skew_drops"]; n != 0 {
				t.Errorf("stream/skew_drops = %d, want 0 (the engine rejects first)", n)
			}
			continue
		}
		err = d.Add(&late)
		if !errors.Is(err, ErrLateRecord) {
			t.Fatalf("err = %v, want ErrLateRecord", err)
		}
		for _, want := range []string{late.Start.String(), time.Minute.String(), frontier.String()} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
		// Within MaxSkew of the frontier but below a pane boundary
		// AdvanceTo sealed: the error names the boundary, not the skew.
		boundary := base.Add(2 * time.Hour)
		if err := d.AdvanceTo(boundary); err != nil {
			t.Fatal(err)
		}
		behind := mk(boundary.Add(-time.Second))
		err = d.Add(&behind)
		if !errors.Is(err, ErrLateRecord) {
			t.Fatalf("err = %v, want ErrLateRecord", err)
		}
		if !strings.Contains(err.Error(), behind.Start.String()) || !strings.Contains(err.Error(), "pane boundary "+boundary.String()) ||
			strings.Contains(err.Error(), "more than") {
			t.Errorf("error %q does not name the record and the pane boundary %v alone", err, boundary)
		}
	}
}

// A record below the open pane's start is late even when it is within
// MaxSkew of the frontier: the store's bound follows the open pane
// wherever the engine moves it, also past a silent stretch AdvanceTo
// skipped. Such a record was once folded into the open pane, a window
// that does not hold it.
func TestRecordBeforeOpenPaneIsLate(t *testing.T) {
	base := baseTime()
	for _, tc := range []struct {
		name    string
		maxSkew time.Duration
		advance time.Duration // AdvanceTo(base+advance) after the first record; 0 = none
		feed    []time.Duration
		late    time.Duration
		want    []string // emitted windows, "index:records"
	}{
		{"skipped panes", 2 * time.Hour, 10*time.Hour + 30*time.Minute,
			[]time.Duration{10 * time.Minute, 10*time.Hour + 15*time.Minute}, 9 * time.Hour, []string{"0:1", "10:1"}},
	} {
		var got []string
		d, err := New(Config{Window: time.Hour, Origin: base, MaxSkew: tc.maxSkew, Core: testConfig()},
			func(r *Result) error { got = append(got, fmt.Sprintf("%d:%d", r.Index, r.Records)); return nil })
		if err != nil {
			t.Fatal(err)
		}
		add := func(at time.Duration) error {
			r := flow.Record{Src: 1, Dst: 100, Proto: flow.TCP, State: flow.StateEstablished,
				Start: base.Add(at), End: base.Add(at + time.Second)}
			return d.Add(&r)
		}
		if err := add(tc.feed[0]); err != nil {
			t.Fatal(err)
		}
		if tc.advance > 0 {
			if err := d.AdvanceTo(base.Add(tc.advance)); err != nil {
				t.Fatal(err)
			}
		}
		if err := add(tc.late); !errors.Is(err, ErrLateRecord) {
			t.Errorf("%s: record at base+%v: err = %v, want ErrLateRecord", tc.name, tc.late, err)
		}
		for _, at := range tc.feed[1:] {
			if err := add(at); err != nil {
				t.Fatalf("%s: record at base+%v: %v", tc.name, at, err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: emitted %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Which records are late may not depend on the store's shard count.
// Host b, alone in its shard of a 2-way split, moves the frontier to
// +30m; a's record at +15m is then 15 minutes behind it with 5 allowed.
// Judged against a's own shard, which has seen nothing, it was kept —
// so plotfind -window's verdict depended on the box's CPU count.
func TestLateRecordShardCountIndependent(t *testing.T) {
	base := baseTime()
	a, b := flow.IP(1), flow.IP(2)
	for flow.ShardOf(a, 2) == flow.ShardOf(b, 2) {
		b++
	}
	for _, shards := range []int{1, 2, 4, 0} {
		d, err := New(Config{Window: 6 * time.Hour, Origin: base, Shards: shards, MaxSkew: 5 * time.Minute, DropLate: true, Core: testConfig()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			src flow.IP
			at  time.Duration
		}{{b, 10 * time.Minute}, {b, 20 * time.Minute}, {b, 30 * time.Minute}, {a, 15 * time.Minute}} {
			rec := flow.Record{Src: r.src, Dst: 100, Proto: flow.TCP, Start: base.Add(r.at), End: base.Add(r.at + time.Second), State: flow.StateEstablished}
			if err := d.Add(&rec); err != nil {
				t.Fatal(err)
			}
		}
		d.Store().Drain()
		if d.Dropped() != 1 || d.Store().Hosts() != 1 {
			t.Errorf("shards=%d: Dropped() = %d, hosts = %d; want 1 and 1", shards, d.Dropped(), d.Store().Hosts())
		}
	}
}

// A record before an explicit Origin lies in no window: it is late,
// whether it comes first (it once broke the run with a non-late error)
// or within MaxSkew of the frontier (it was once folded into window 0).
func TestRecordBeforeOriginIsLate(t *testing.T) {
	origin := baseTime()
	for _, dropLate := range []bool{true, false} {
		var results []*Result
		d, err := New(Config{Window: time.Hour, Origin: origin, MaxSkew: 5 * time.Minute, DropLate: dropLate, Core: testConfig()},
			func(r *Result) error { results = append(results, r); return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []time.Duration{-time.Minute, time.Minute, -2 * time.Minute} {
			rec := flow.Record{Src: 1, Dst: 100, Proto: flow.TCP, Start: origin.Add(at), End: origin.Add(at + time.Second), State: flow.StateEstablished}
			err := d.Add(&rec)
			switch {
			case at > 0 && err != nil:
				t.Fatalf("DropLate=%v: record at origin%+v: %v", dropLate, at, err)
			case at < 0 && dropLate && err != nil:
				t.Fatalf("DropLate: record at origin%+v: %v, want it counted", at, err)
			case at < 0 && !dropLate && !errors.Is(err, ErrLateRecord):
				t.Fatalf("record at origin%+v: err = %v, want ErrLateRecord", at, err)
			}
		}
		if err := d.AdvanceTo(origin.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if d.Dropped() != 2 || len(results) != 1 || results[0].Index != 0 || results[0].Records != 1 {
			t.Errorf("DropLate=%v: Dropped() = %d, %d windows (first %+v); want 2 drops and window 0 with 1 record",
				dropLate, d.Dropped(), len(results), results)
		}
	}
}

// A pane that only unmonitored initiators reached is still sealed at
// Flush, as one holding a monitored host's record is: the sliding window
// it ends holds the earlier panes' hosts and is emitted, Partial. That
// holds across a snapshot too, though the store keeps nothing of such
// records. The record counts in "engine/records" all the same: it
// reached the engine in time.
func TestFlushSealsPaneOnlyUnmonitoredReached(t *testing.T) {
	origin := baseTime()
	for _, restore := range []bool{false, true} {
		var got []string
		emit := func(r *Result) error {
			got = append(got, fmt.Sprintf("%v partial=%v hosts=%d", r.Window, r.Partial, r.Hosts))
			return nil
		}
		coreCfg := testConfig()
		coreCfg.Metrics = metrics.New()
		cfg := Config{Window: time.Hour, Slide: 20 * time.Minute, Origin: origin, MaxSkew: time.Minute,
			Internal: func(ip flow.IP) bool { return ip < 100 }, Core: coreCfg}
		d, err := New(cfg, emit)
		if err != nil {
			t.Fatal(err)
		}
		add := func(src flow.IP, at time.Duration) {
			r := flow.Record{Src: src, Dst: 500, Proto: flow.TCP, State: flow.StateEstablished,
				Start: origin.Add(at), End: origin.Add(at + time.Second)}
			if err := d.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
		for m := 0; m < 70; m++ {
			add(1, time.Duration(m)*time.Minute)
		}
		add(200, 85*time.Minute) // the pane [80m, 100m) sees only this one
		if restore {
			st := d.State()
			if d, err = New(cfg, emit); err != nil {
				t.Fatal(err)
			}
			if err := d.RestoreState(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		last := fmt.Sprintf("%v partial=true hosts=1", flow.Window{From: origin.Add(40 * time.Minute), To: origin.Add(100 * time.Minute)})
		if len(got) != 3 || got[2] != last {
			t.Errorf("restore=%v: emitted %q, want three windows, the last %q", restore, got, last)
		}
		if n := coreCfg.Metrics.TakeSnapshot().Counters["engine/records"]; n != 71 {
			t.Errorf("restore=%v: engine/records = %d, want 71 (the filter does not drop the count)", restore, n)
		}
	}
}

// θ_churn's grace period restarts in every window: a host that comes
// back two windows later, past its first window's grace, contacts a
// fresh peer inside its new window's warm-up, so the peer is not new.
func TestEngineGraceRestartsEachWindow(t *testing.T) {
	base := baseTime()
	var results []*Result
	d, err := New(Config{
		Window: time.Hour,
		Origin: base,
		Core:   testConfig(),
	}, func(r *Result) error { results = append(results, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dst flow.IP, at time.Time) flow.Record {
		return flow.Record{
			Src: 1, Dst: dst, SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 10, DstBytes: 10,
			State: flow.StateEstablished,
		}
	}
	r1 := mk(100, base)
	r2 := mk(101, base.Add(2*time.Hour).Add(time.Minute))
	if err := d.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&r2); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (empty middle window skipped)", len(results))
	}
	f := results[1].Detection.Analysis.Features()[1]
	if f == nil {
		t.Fatal("host 1 missing from second window")
	}
	if f.NewPeers != 0 {
		t.Errorf("NewPeers = %d, want 0 (warm-up restarted)", f.NewPeers)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Window: time.Hour, Core: core.DefaultConfig()}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Core: core.DefaultConfig()},                                             // no window
		{Window: -time.Hour, Core: core.DefaultConfig()},                         // negative
		{Window: time.Hour, Slide: -time.Second, Core: core.DefaultConfig()},     // negative slide
		{Window: time.Hour, Slide: 25 * time.Minute, Core: core.DefaultConfig()}, // indivisible
		{Window: time.Hour, Slide: 2 * time.Hour, Core: core.DefaultConfig()},    // slide > window
		{Window: time.Hour, MaxSkew: -time.Second, Core: core.DefaultConfig()},   // negative skew
		{Window: time.Hour, Core: core.Config{}},                                 // invalid core
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("New accepted an invalid config")
	}
}

// Slide == Window is tumbling, just spelled differently.
func TestSlideEqualsWindowIsTumbling(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := baseTime()
	records := synthStream(rng, base, 2*time.Hour)

	run := func(slide time.Duration) []*Result {
		var results []*Result
		d, err := New(Config{
			Window: time.Hour,
			Slide:  slide,
			Origin: base,
			Core:   testConfig(),
		}, func(r *Result) error { results = append(results, r); return nil })
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
	tumbling, aliased := run(0), run(time.Hour)
	if len(tumbling) != len(aliased) {
		t.Fatalf("result counts differ: %d vs %d", len(tumbling), len(aliased))
	}
	for i := range tumbling {
		if tumbling[i].Window != aliased[i].Window {
			t.Errorf("window %d bounds differ", i)
		}
		detectionEqual(t, tumbling[i].Window.String(), aliased[i].Detection, tumbling[i].Detection)
	}
}
