package flow

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// destTimes is the oracle's entry: what the table keeps per destination.
type destTimes struct{ first, last int64 }

// distinctKeys draws n distinct addresses from next.
func distinctKeys(n int, next func() IP) []IP {
	seen := map[IP]bool{}
	out := make([]IP, 0, n)
	for len(out) < n {
		if ip := next(); !seen[ip] {
			seen[ip] = true
			out = append(out, ip)
		}
	}
	return out
}

// collidingKeys returns n distinct addresses whose hashes share their top
// 16 bits, top: one home slot at every table size up to 2¹⁶ — the last
// one when top is all ones, where probing wraps. The hash multiplies by
// an odd constant, so its inverse modulo 2³² places a key anywhere.
func collidingKeys(rng *rand.Rand, n int, top uint32) []IP {
	const phi = 0x9E3779B9
	inv := uint32(phi) // right to 3 bits; each Newton step doubles that
	for range 4 {
		inv *= 2 - phi*inv
	}
	return distinctKeys(n, func() IP { return IP((top<<16 | uint32(rng.Intn(1<<16))) * inv) })
}

// checkDestTable fails unless the table holds exactly the oracle's
// entries, in as many slots as 7/8 load allows, and lists them in
// address order.
func checkDestTable(t *testing.T, what string, tbl *destTable, want map[IP]destTimes) {
	t.Helper()
	if tbl.n != len(want) {
		t.Fatalf("%s: table holds %d, map %d", what, tbl.n, len(want))
	}
	var least destTable
	least.reserve(len(want))
	if len(tbl.slots) != len(least.slots) {
		t.Fatalf("%s: %d entries in %d slots, 7/8 load wants %d", what, tbl.n, len(tbl.slots), len(least.slots))
	}
	for _, s := range tbl.slots {
		if w, ok := want[s.dst]; s.used && (!ok || s.first != w.first || s.last != w.last) {
			t.Fatalf("%s: slot %+v, map has %+v", what, s, w)
		}
	}
	keys := SortedHosts(want)
	if dsts := (&featureBuilder{dests: *tbl}).sortedDests(); !slices.Equal(dsts, keys) {
		t.Fatalf("%s: sortedDests differ from the map's sorted keys", what)
	}
}

// The open-addressed destination table against a Go map driven by the
// same seeded upserts: random keys with 0 and 0xFFFFFFFF among them, and
// keys that all hash to one slot (a middle one, and the last, where
// probing wraps), at sizes crossing every growth step up to 4,096. Each
// upsert is observe's — a fresh key takes the time as first and last, a
// known one moves last — and the table must hold the map's entries after
// every growth, at the end, and after a round trip through
// State/RestoreState and through a pane's state.
func TestDestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pools := map[string][]IP{
		"random":          append([]IP{0, 0xFFFFFFFF}, distinctKeys(4094, func() IP { return IP(rng.Uint32()) })...),
		"one home slot":   collidingKeys(rng, 600, 0x8000),
		"last home slot":  collidingKeys(rng, 600, 0xFFFF),
		"first step only": {0xFFFFFFFF, 1, 2, 3, 4, 5, 0},
	}
	for name, pool := range pools {
		t.Run(name, func(t *testing.T) {
			var tbl destTable
			want := map[IP]destTimes{}
			first := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC).UnixNano()
			now, grown := first, 0
			for added := 0; added < len(pool); {
				// Mostly new keys, with repeat contacts in between.
				ip := pool[added]
				if added > 0 && rng.Intn(3) == 0 {
					ip = pool[rng.Intn(added)]
				}
				size := len(tbl.slots)
				d, fresh := tbl.upsert(ip)
				w, known := want[ip]
				if fresh == known {
					t.Fatalf("upsert(%v): fresh = %v, key in the map = %v", ip, fresh, known)
				}
				if fresh {
					if d.first != 0 || d.last != 0 {
						t.Fatalf("upsert(%v): fresh slot holds %+v", ip, d)
					}
					d.first, w.first = now, now
					added++
				}
				d.last, w.last = now, now
				want[ip] = w
				if len(tbl.slots) != size {
					grown++
					checkDestTable(t, "after growing", &tbl, want)
				}
				now += rng.Int63n(int64(time.Minute))
			}
			checkDestTable(t, "at the end", &tbl, want)
			if steps := bits.TrailingZeros(uint(len(tbl.slots)/destTableMin)) + 1; grown != steps {
				t.Fatalf("the table grew %d times to %d slots, want %d", grown, len(tbl.slots), steps)
			}

			host := IP(7)
			b := &featureBuilder{
				feats: &HostFeatures{Host: host, Flows: 1, Peers: tbl.n, FirstSeen: time.Unix(0, first).UTC()},
				dests: tbl,
			}
			se := newShardExtractor(FeatureOptions{}, 0)
			se.pending.queues[se.pending.queue(host)].b, se.hosts = b, 1
			restored := newShardExtractor(FeatureOptions{}, 0)
			if err := restored.RestoreState(se.State()); err != nil {
				t.Fatal(err)
			}
			checkDestTable(t, "through State/RestoreState", &restored.pending.queues[restored.pending.index[host]].b.dests, want)
			pane := NewPaneFromState((&Pane{shards: []paneShard{se.take()}}).State())
			pane.each(func(f *HostFeatures, dsts []IP, spans []span) {
				if !slices.Equal(dsts, SortedHosts(want)) {
					t.Fatalf("through a pane's state: host %v's run is not the table in address order", f.Host)
				}
				for j, dst := range dsts {
					if w := want[dst]; spans[j] != (span{w.first, w.last}) {
						t.Fatalf("through a pane's state: %v has %+v, map has %+v", dst, spans[j], w)
					}
				}
			})
			if !reflect.DeepEqual(pane.FeatureSet().Contacts(), map[IP][]IP{host: SortedHosts(want)}) {
				t.Fatal("the restored pane's contacts differ")
			}
		})
	}
}
