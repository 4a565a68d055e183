package flow

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// destTimes is the oracle's entry: what the table keeps per pair.
type destTimes struct{ first, last int64 }

// distinctKeys draws n distinct keys from next.
func distinctKeys[K comparable](n int, next func() K) []K {
	seen := map[K]bool{}
	out := make([]K, 0, n)
	for len(out) < n {
		if k := next(); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// collidingKeys returns n distinct keys whose hashes share their top 16
// bits, top: one home slot at every table size up to 2¹⁵ — the last one
// when top is all ones, where probing wraps. The hash multiplies by an
// odd constant, so its inverse modulo 2⁶⁴ places a key anywhere.
func collidingKeys(rng *rand.Rand, n int, top uint64) []uint64 {
	const phi = 0x9E3779B97F4A7C15
	inv := uint64(phi) // right to 3 bits; each Newton step doubles that
	for range 5 {
		inv *= 2 - phi*inv
	}
	return distinctKeys(n, func() uint64 { return (top<<48 | rng.Uint64()>>16) * inv })
}

// tableSize is the size a table holding n entries has: the first of the
// sizes it grows through — by quarters if kept, else doubling — with
// room for n at 7/8 load.
func tableSize(n int, kept bool) (size, growths int) {
	for size, growths = destTableMin, 1; n*8 > size*7; growths++ {
		if kept {
			size += size / 4
		} else {
			size *= 2
		}
	}
	return size, growths
}

// checkDestTable fails unless the table holds exactly the oracle's
// entries, in the size its growth steps give for that many.
func checkDestTable(t *testing.T, what string, tbl *destTable, want map[uint64]destTimes) {
	t.Helper()
	if tbl.n != len(want) {
		t.Fatalf("%s: table holds %d, map %d", what, tbl.n, len(want))
	}
	if size, _ := tableSize(len(want), tbl.kept); len(tbl.slots) != size {
		t.Fatalf("%s: %d entries in %d slots, want %d", what, tbl.n, len(tbl.slots), size)
	}
	for _, s := range tbl.slots {
		if w, ok := want[s.key]; s.key != 0 && (!ok || s.first != w.first || s.last != w.last) {
			t.Fatalf("%s: slot %+v, map has %+v", what, s, w)
		}
	}
}

// The open-addressed table against a Go map driven by the same seeded
// upserts: random keys, and keys that all hash to one slot (a middle
// one, and the last, where probing wraps), at sizes crossing every
// growth step up to 4,096 entries. Each upsert is observe's — a fresh
// key takes the time as first and last, a known one moves last — and the
// table must hold the map's entries after every growth and at the end.
// A kept table grows a quarter at a time, each growth leaving it 7/10
// full; a table used once doubles. Reset empties either in place.
func TestDestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pools := map[string][]uint64{
		"random":         distinctKeys(4096, func() uint64 { return rng.Uint64() | 1 }),
		"one home slot":  collidingKeys(rng, 600, 0x8000),
		"last home slot": collidingKeys(rng, 600, 0xFFFF),
		"first step only": {
			destKey(0, 0), destKey(0, 0xFFFFFFFF), destKey(1<<31-2, 0), destKey(1<<31-2, 0xFFFFFFFF), destKey(5, 5),
		},
	}
	for name, pool := range pools {
		t.Run(name, func(t *testing.T) {
			for _, kept := range []bool{true, false} {
				checkUpserts(t, rng, pool, kept)
			}
		})
	}
}

// checkUpserts drives one table through pool's upserts against the map.
func checkUpserts(t *testing.T, rng *rand.Rand, pool []uint64, kept bool) {
	t.Helper()
	tbl := destTable{kept: kept}
	want := map[uint64]destTimes{}
	now, grown := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC).UnixNano(), 0
	for added := 0; added < len(pool); {
		// Mostly new keys, with repeat contacts in between.
		key := pool[added]
		if added > 0 && rng.Intn(3) == 0 {
			key = pool[rng.Intn(added)]
		}
		size := len(tbl.slots)
		d, fresh := tbl.upsert(key)
		w, known := want[key]
		if fresh == known || d.key != key {
			t.Fatalf("upsert(%x): fresh = %v, key in the map = %v, slot key %x", key, fresh, known, d.key)
		}
		if fresh {
			if d.first != 0 || d.last != 0 {
				t.Fatalf("upsert(%x): fresh slot holds %+v", key, d)
			}
			d.first, w.first = now, now
			added++
		}
		d.last, w.last = now, now
		want[key] = w
		if len(tbl.slots) != size {
			grown++
			checkDestTable(t, "after growing", &tbl, want)
			if load := float64(tbl.n) / float64(len(tbl.slots)); kept && size > 0 && (load < 0.69 || load > 0.72) {
				t.Fatalf("a growth to %d slots left the table %.3f full", len(tbl.slots), load)
			}
		}
		now += rng.Int63n(int64(time.Minute))
	}
	checkDestTable(t, "at the end", &tbl, want)
	if _, steps := tableSize(len(want), kept); grown != steps {
		t.Fatalf("kept = %v: the table grew %d times to %d slots, want %d", kept, grown, len(tbl.slots), steps)
	}
	tbl.reset()
	if tbl.n != 0 || slices.ContainsFunc(tbl.slots, func(s destSlot) bool { return s != destSlot{} }) {
		t.Fatal("reset left entries behind")
	}
}

// A store shard's table is its hosts' (host, destination) pairs: a
// seeded stream of first and repeat contacts from three hosts, with 0
// and 0xFFFFFFFF among the destinations, leaves the table holding the
// oracle's pairs under each host's slot, and so do a round trip through
// State/RestoreState and one through a pane's state, whose runs list
// each host's destinations in address order with their spans.
func TestStoreTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	hosts := []IP{7, 8, 9}
	pool := append([]IP{0, 0xFFFFFFFF}, distinctKeys(3000, func() IP { return IP(rng.Uint32()) })...)
	want := map[IP]map[IP]destTimes{}
	se := newShardExtractor(FeatureOptions{}, 0)
	start := baseTime()
	for added := 0; added < len(pool); {
		host := hosts[rng.Intn(len(hosts))]
		dst := pool[added]
		if added > 0 && rng.Intn(3) == 0 {
			dst = pool[rng.Intn(added)]
		} else {
			added++
		}
		r := mkRecord(host, dst, start, 100, StateEstablished)
		if err := se.Add(&r); err != nil {
			t.Fatal(err)
		}
		if want[host] == nil {
			want[host] = map[IP]destTimes{}
		}
		w, ok := want[host][dst]
		if !ok {
			w.first = start.UnixNano()
		}
		w.last = start.UnixNano()
		want[host][dst] = w
		start = start.Add(time.Duration(rng.Int63n(int64(time.Minute))))
	}
	check := func(what string, se *shardExtractor) {
		t.Helper()
		flat := map[uint64]destTimes{}
		for host, dests := range want {
			slot := se.pending.queues[se.pending.index[host]].slot
			for dst, w := range dests {
				flat[destKey(slot, dst)] = w
			}
		}
		checkDestTable(t, what, &se.acc.dests, flat)
	}
	check("fed", se)
	restored := newShardExtractor(FeatureOptions{}, 0)
	if err := restored.RestoreState(se.State()); err != nil {
		t.Fatal(err)
	}
	check("through State/RestoreState", restored)

	pane := NewPaneFromState((&Pane{shards: []paneShard{se.take(true)}}).State())
	seen := 0
	pane.each(func(f *HostFeatures, dsts []IP, spans []span) {
		seen++
		if !slices.Equal(dsts, SortedHosts(want[f.Host])) {
			t.Fatalf("through a pane's state: host %v's run is not its pairs in address order", f.Host)
		}
		for j, dst := range dsts {
			if w := want[f.Host][dst]; spans[j] != (span{w.first, w.last}) {
				t.Fatalf("through a pane's state: %v→%v has %+v, map has %+v", f.Host, dst, spans[j], w)
			}
		}
	})
	if seen != len(hosts) {
		t.Fatalf("the pane has %d hosts, want %d", seen, len(hosts))
	}
	contacts := map[IP][]IP{}
	for host, dests := range want {
		contacts[host] = SortedHosts(dests)
	}
	if !reflect.DeepEqual(pane.FeatureSet().Contacts(), contacts) {
		t.Fatal("the restored pane's contacts differ")
	}
	if se.acc.dests.n != 0 || len(se.acc.hosts) != 0 || se.acc.gaps.used != 0 {
		t.Fatal("the seal left the accumulator holding state")
	}
}
