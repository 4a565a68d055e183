package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"plotters/internal/flow"
)

// With a zero Origin the grid is the Unix epoch's, not the first
// record's: a record within MaxSkew before the first one lands in the
// window that holds it. It once landed in window 0, which started at
// the first record, after it.
func TestZeroOriginRecordLandsInItsWindow(t *testing.T) {
	base := baseTime()
	var got []*Result
	d, err := New(Config{Window: time.Hour, MaxSkew: time.Hour, Core: testConfig()},
		func(r *Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{30 * time.Minute, 10 * time.Minute} {
		r := flow.Record{Src: 1, Dst: 100, Proto: flow.TCP, State: flow.StateEstablished,
			Start: base.Add(at), End: base.Add(at + time.Second)}
		if err := d.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	early := base.Add(10 * time.Minute)
	epochHours := int(base.Sub(time.Unix(0, 0)) / time.Hour)
	if d.Dropped() != 0 || len(got) != 1 || !got[0].Window.Contains(early) || got[0].Records != 2 || got[0].Index != epochHours {
		t.Fatalf("Dropped() = %d, windows %+v; want one window, number %d, holding both records and %v",
			d.Dropped(), got, epochHours, early)
	}
}

// Under an explicit Origin the first record opens the pane that holds
// frontier − MaxSkew, not its own: a record within MaxSkew before it,
// one pane back, is counted there. It was once dropped as late.
func TestExplicitOriginKeepsRecordWithinSkew(t *testing.T) {
	base := baseTime()
	var got []string
	d, err := New(Config{Window: time.Hour, Origin: base, MaxSkew: time.Hour, Core: testConfig()},
		func(r *Result) error { got = append(got, fmt.Sprintf("%d:%d", r.Index, r.Records)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{5*time.Hour + 10*time.Minute, 4*time.Hour + 40*time.Minute} {
		r := flow.Record{Src: 1, Dst: 100, Proto: flow.TCP, State: flow.StateEstablished,
			Start: base.Add(at), End: base.Add(at + time.Second)}
		if err := d.Add(&r); err != nil {
			t.Fatalf("record at base+%v: %v", at, err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"4:1", "5:1"}; d.Dropped() != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Dropped() = %d, emitted %v; want 0 and %v", d.Dropped(), got, want)
	}
}

// skewedStream returns n records starting in [from, from+span), in an
// arrival order that moves each record less than skew from its start:
// each arrives at its start plus a random delay under skew, so the
// frontier is always less than skew ahead of an arriving record.
func skewedStream(rng *rand.Rand, from time.Time, span, skew time.Duration, n int) []flow.Record {
	type arrival struct {
		at time.Time
		r  flow.Record
	}
	feed := make([]arrival, n)
	for i := range feed {
		start := from.Add(time.Duration(rng.Int63n(int64(span))))
		state := flow.StateEstablished
		if rng.Intn(4) == 0 {
			state = flow.StateFailed
		}
		feed[i] = arrival{start.Add(time.Duration(rng.Int63n(int64(skew)))), flow.Record{
			Src: flow.IP(1 + rng.Intn(12)), Dst: flow.IP(100 + rng.Intn(30)), Proto: flow.TCP,
			Start: start, End: start.Add(time.Second), SrcPkts: 1, DstPkts: 1,
			SrcBytes: uint64(40 + rng.Intn(5000)), DstBytes: 100, State: state,
		}}
	}
	slices.SortFunc(feed, func(a, b arrival) int { return a.at.Compare(b.at) })
	out := make([]flow.Record, n)
	for i := range feed {
		out[i] = feed[i].r
	}
	return out
}

type gridWindow struct {
	Index          int
	From, To       int64 // Unix ns
	Hosts, Records int
}

// A stream whose every record arrives within MaxSkew of its start loses
// nothing and places every record in a window that holds it, whatever
// the first record, the origin, the slide or the shard count. Under a
// zero Origin, where every engine shares the epoch grid, an engine that
// sees only the records from a pane boundary on emits the windows from
// that boundary on exactly as the engine that saw the whole stream.
func TestGridPlacesEveryConformingRecord(t *testing.T) {
	base := baseTime()
	const skew = 15 * time.Minute
	run := func(t *testing.T, cfg Config, records []flow.Record) []gridWindow {
		t.Helper()
		var out []gridWindow
		d, err := NewSealer(cfg, func(src *flow.FeatureSet, res *Result) error {
			w := gridWindow{Index: res.Index, From: res.Window.From.UnixNano(), To: res.Window.To.UnixNano()}
			for _, f := range src.Features() {
				if !res.Window.Contains(f.FirstSeen) {
					t.Errorf("host %v first seen at %v, outside its window %d %v", f.Host, f.FirstSeen, res.Index, res.Window)
				}
				w.Hosts++
				w.Records += f.Flows
			}
			out = append(out, w)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range records {
			if err := d.Add(&records[i]); err != nil {
				t.Fatalf("record %d at %v: %v", i, records[i].Start, err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if d.Dropped() != 0 {
			t.Errorf("Dropped() = %d, want 0", d.Dropped())
		}
		return out
	}
	for _, slide := range []time.Duration{0, 20 * time.Minute} {
		for _, origin := range []time.Time{{}, base} {
			for _, shards := range []int{1, 3} {
				for seed := int64(1); seed <= 5; seed++ {
					name := fmt.Sprintf("slide=%v/origin=%v/shards=%d/seed=%d", slide, !origin.IsZero(), shards, seed)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						// Off the grid, so a first-record origin would be too.
						from := base.Add(time.Duration(rng.Int63n(int64(time.Hour))))
						records := skewedStream(rng, from, 4*time.Hour, skew, 600)
						cfg := Config{Window: time.Hour, Slide: slide, Origin: origin, Shards: shards, MaxSkew: skew, Core: testConfig()}
						whole := run(t, cfg, records)
						if len(whole) == 0 {
							t.Fatal("no window emitted")
						}
						if !origin.IsZero() {
							return
						}
						boundary := base.Add(2 * time.Hour)
						var suffix []flow.Record
						for _, r := range records {
							if !r.Start.Before(boundary) {
								suffix = append(suffix, r)
							}
						}
						from2 := func(ws []gridWindow) []gridWindow {
							return slices.DeleteFunc(ws, func(w gridWindow) bool { return w.From < boundary.UnixNano() })
						}
						if got, want := from2(run(t, cfg, suffix)), from2(whole); len(want) == 0 || !reflect.DeepEqual(got, want) {
							t.Errorf("from %v on, the suffix's engine emitted\n%+v\nthe whole stream's\n%+v", boundary, got, want)
						}
					})
				}
			}
		}
	}
}
