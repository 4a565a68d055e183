package flow

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// reorderRecord builds record number id: Src carries the id (so the
// Hosts predicate, which process calls once per record, logs processing
// order) and every other field is derived from it, so a record that came
// back from the buffer with a neighbour's fields is caught.
func reorderRecord(id int, start time.Time) Record {
	return Record{
		Src: IP(id), Dst: IP(1000 + id%7),
		SrcPort: uint16(1024 + id), DstPort: uint16(80 + id%5), Proto: TCP,
		Start: start, End: start.Add(time.Duration(id) * time.Millisecond),
		SrcPkts: uint32(id), DstPkts: uint32(2 * id),
		SrcBytes: uint64(3 * id), DstBytes: uint64(5 * id),
		State:   StateEstablished,
		Payload: []byte{byte(id), byte(id >> 8), 0xfe},
	}
}

// The reorder buffer against an oracle: under any interleaving of Add
// (which releases up to frontier − MaxSkew), ReleaseBefore and a
// State → RestoreState hop into a fresh extractor, with starts on a
// coarse grid so ties are the common case, records are processed in
// exactly the order a stable sort by start gives over arrival order,
// rejects are exactly the records below the released floor, and every
// snapshot lists the buffered records (start, seq)-sorted and intact.
func TestReorderMatchesStableSort(t *testing.T) {
	const maxSkew = 8 * time.Second
	rejects, restoredPending := 0, 0 // proof the run reached both paths
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var processed []IP
		opts := FeatureOptions{Hosts: func(ip IP) bool {
			processed = append(processed, ip)
			return true
		}}
		se := NewStreamExtractorSkew(opts, maxSkew)

		byID := map[IP]Record{}
		var accepted []Record // arrival order
		floor := time.Time{}  // nothing below this may still be accepted
		raiseFloor := func() {
			if n := len(processed); n > 0 && byID[processed[n-1]].Start.After(floor) {
				floor = byID[processed[n-1]].Start
			}
		}
		clock := baseTime()
		for id := 1; id <= 400; id++ {
			switch op := rng.Intn(20); {
			case op == 0:
				at := clock.Add(time.Duration(rng.Intn(12)-8) * time.Second)
				se.ReleaseBefore(at)
				raiseFloor()
				if at.After(floor) {
					floor = at
				}
			case op == 1:
				st := se.State()
				if !sort.SliceIsSorted(st.Pending, func(i, j int) bool {
					a, b := st.Pending[i], st.Pending[j]
					if !a.Rec.Start.Equal(b.Rec.Start) {
						return a.Rec.Start.Before(b.Rec.Start)
					}
					return a.Seq < b.Seq
				}) {
					t.Fatalf("seed %d: Pending not sorted by (start, seq)", seed)
				}
				if len(st.Pending) != se.Pending() {
					t.Fatalf("seed %d: snapshot lists %d pending, buffer holds %d", seed, len(st.Pending), se.Pending())
				}
				for _, p := range st.Pending {
					if !reflect.DeepEqual(p.Rec, byID[p.Rec.Src]) {
						t.Fatalf("seed %d: pending record altered:\n got %+v\nwant %+v", seed, p.Rec, byID[p.Rec.Src])
					}
				}
				restoredPending += len(st.Pending)
				se = NewStreamExtractorSkew(opts, maxSkew)
				if err := se.RestoreState(st); err != nil {
					t.Fatal(err)
				}
			}
			// The clock creeps forward; a record lands up to 1.5 × MaxSkew
			// behind it, so some arrive too late and must be rejected.
			clock = clock.Add(time.Duration(rng.Intn(3)) * time.Second)
			r := reorderRecord(id, clock.Add(-time.Duration(rng.Intn(13))*time.Second))
			byID[r.Src] = r
			err := se.Add(&r)
			if late := r.Start.Before(floor); late != (err != nil) {
				t.Fatalf("seed %d: record %d at %v, floor %v: err = %v", seed, id, r.Start, floor, err)
			}
			if err == nil {
				accepted = append(accepted, r)
			} else {
				rejects++
			}
			raiseFloor()
		}
		se.Drain()

		sort.SliceStable(accepted, func(i, j int) bool { return accepted[i].Start.Before(accepted[j].Start) })
		if len(processed) != len(accepted) {
			t.Fatalf("seed %d: processed %d records, accepted %d", seed, len(processed), len(accepted))
		}
		for i, r := range accepted {
			if processed[i] != r.Src {
				t.Fatalf("seed %d: position %d processed record %v, stable sort says %v", seed, i, processed[i], r.Src)
			}
		}
	}
	if rejects == 0 || restoredPending == 0 {
		t.Errorf("weak run: %d rejects, %d records carried through a restore", rejects, restoredPending)
	}
}

// warmReorderBuffer returns a buffer that has already grown to hold n
// records, and the records to cycle through it.
func warmReorderBuffer(n int) (*reorderBuffer, []Record) {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = reorderRecord(i+1, baseTime().Add(time.Duration(i*37%n)*time.Second))
	}
	var b reorderBuffer
	for i := range recs {
		b.push(&recs[i], uint64(i))
	}
	b.pop()
	return &b, recs
}

// Accepting a record must not allocate once the slab has grown to the
// feed's reorder depth: no boxing, no per-record node.
func TestReorderPushPopZeroAlloc(t *testing.T) {
	b, recs := warmReorderBuffer(256)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		b.push(&recs[i%len(recs)], uint64(len(recs)+i))
		b.pop()
		i++
	}); avg != 0 {
		t.Errorf("push+pop on a warm buffer: %v allocs, want 0", avg)
	}
}

// A vacated slot must not keep the departed record's Payload (or
// anything else of it) reachable until the slot happens to be reused.
func TestReorderPopReleasesPayload(t *testing.T) {
	var b reorderBuffer
	for id := 1; id <= 5; id++ {
		r := reorderRecord(id, baseTime().Add(time.Duration(5-id)*time.Second))
		b.push(&r, uint64(id))
	}
	for n := b.len(); n > 0; n-- {
		r := b.pop()
		if len(r.Payload) != 3 {
			t.Fatalf("popped record lost its payload: %+v", r)
		}
		vacated := 0
		for i := range b.slab {
			if reflect.DeepEqual(b.slab[i], Record{}) {
				vacated++
			}
		}
		if want := len(b.slab) - b.len(); vacated != want {
			t.Fatalf("%d of %d slots zeroed with %d records buffered", vacated, len(b.slab), b.len())
		}
	}
}

// BenchmarkStreamReorder is one record through a warm reorder buffer —
// the per-record cost MaxSkew adds to the streaming extractor. CI gates
// its allocs/op at zero (benchgate -zero-allocs).
func BenchmarkStreamReorder(b *testing.B) {
	buf, recs := warmReorderBuffer(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.push(&recs[i%len(recs)], uint64(len(recs)+i))
		buf.pop()
	}
}
