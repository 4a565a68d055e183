package community

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"plotters/internal/flow"
)

// ip is shorthand for test addresses.
func ip(v uint32) flow.IP { return flow.IP(v) }

// contactsFixture: hosts 1,2,3 share destinations; host 4 overlaps too
// little; destination 99 is popular (contacted by everyone).
func contactsFixture() map[flow.IP][]flow.IP {
	return map[flow.IP][]flow.IP{
		ip(1): {ip(100), ip(101), ip(102), ip(99)},
		ip(2): {ip(100), ip(101), ip(102), ip(103), ip(99)},
		ip(3): {ip(101), ip(102), ip(103), ip(99)},
		ip(4): {ip(100), ip(200), ip(99)},
	}
}

func TestBuildGraphFixture(t *testing.T) {
	g, err := BuildGraph(contactsFixture(), GraphConfig{MinSharedContacts: 2, MaxFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Hosts() != 4 {
		t.Errorf("Hosts() = %d, want 4", g.Hosts())
	}
	// 1-2 share {100,101,102}, 1-3 share {101,102}, 2-3 share
	// {101,102,103}. Host 4 shares only {100} with 1 and 2 — below
	// threshold. Destination 99 has fan-in 4 > MaxFanIn, so it counts
	// toward nothing.
	if g.Edges() != 3 {
		t.Errorf("Edges() = %d, want 3", g.Edges())
	}
	want := map[[2]uint32]int{
		{1, 2}: 3, {1, 3}: 2, {2, 3}: 3,
	}
	for pair, w := range want {
		if got := g.Weight(ip(pair[0]), ip(pair[1])); got != w {
			t.Errorf("Weight(%d,%d) = %d, want %d", pair[0], pair[1], got, w)
		}
		if got := g.Weight(ip(pair[1]), ip(pair[0])); got != w {
			t.Errorf("Weight(%d,%d) = %d, want %d (symmetric)", pair[1], pair[0], got, w)
		}
	}
	if g.Weight(ip(1), ip(4)) != 0 {
		t.Errorf("Weight(1,4) = %d, want 0 (below threshold)", g.Weight(ip(1), ip(4)))
	}
	if g.Degree(ip(2)) != 2 || g.Degree(ip(4)) != 0 {
		t.Errorf("Degree(2) = %d (want 2), Degree(4) = %d (want 0)", g.Degree(ip(2)), g.Degree(ip(4)))
	}
	if g.Degree(ip(77)) != 0 {
		t.Errorf("Degree of unknown host = %d, want 0", g.Degree(ip(77)))
	}
}

func TestBuildGraphFanInUncapped(t *testing.T) {
	// With the cap off, the popular destination 99 links everyone, but
	// one shared destination stays below MinSharedContacts=2 for host 4.
	g, err := BuildGraph(contactsFixture(), GraphConfig{MinSharedContacts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 99 now adds 1 to every pair: 1-2=4, 1-3=3, 2-3=4, 1-4=2, 2-4=2, 3-4=1.
	if g.Edges() != 5 {
		t.Errorf("Edges() = %d, want 5", g.Edges())
	}
	if g.Weight(ip(1), ip(4)) != 2 {
		t.Errorf("Weight(1,4) = %d, want 2", g.Weight(ip(1), ip(4)))
	}
}

// With IDF weighting on, topology is untouched but weights follow
// destination rarity: a destination shared by fewer hosts outweighs a
// widely-shared one.
func TestBuildGraphIDFWeights(t *testing.T) {
	raw, err := BuildGraph(contactsFixture(), GraphConfig{MinSharedContacts: 2, MaxFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(contactsFixture(), GraphConfig{MinSharedContacts: 2, MaxFanIn: 3, IDFWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Hosts() != raw.Hosts() || g.Edges() != raw.Edges() {
		t.Fatalf("IDF weighting changed topology: hosts %d/%d edges %d/%d",
			g.Hosts(), raw.Hosts(), g.Edges(), raw.Edges())
	}
	if !reflect.DeepEqual(g.adj, raw.adj) {
		t.Error("IDF weighting changed adjacency — it must only touch weights")
	}
	// Fixture fan-ins under the cap: 100→{1,2,4} (3 hosts), 101,102→{1,2,3}
	// (3 hosts), 103→{2,3} (2 hosts). With 4 monitored hosts,
	// idf(fanin=2) = log(2) > idf(fanin=3) = log(4/3). Pair 2-3 shares
	// {101,102,103} and pair 1-2 shares {100,101,102}: same raw count 3,
	// but 2-3 holds the rarer 103, so its IDF weight must be strictly
	// higher (3·log(4/3) ≈ 221 fixed-point units vs
	// 2·log(4/3)+log(2) ≈ 324).
	w12, w23 := g.Weight(ip(1), ip(2)), g.Weight(ip(2), ip(3))
	if raw.Weight(ip(1), ip(2)) != raw.Weight(ip(2), ip(3)) {
		t.Fatal("fixture drifted: raw weights of 1-2 and 2-3 should tie")
	}
	if w23 <= w12 {
		t.Errorf("IDF weight of pair sharing a rarer destination = %d, want > %d", w23, w12)
	}
	if w12 < 1 || w23 < 1 {
		t.Errorf("IDF weights must stay >= 1, got %d and %d", w12, w23)
	}
}

// An edge whose every shared destination is maximally popular (fan-in =
// monitored hosts, IDF 0) still carries the clamp weight 1.
func TestBuildGraphIDFClampsToOne(t *testing.T) {
	contacts := map[flow.IP][]flow.IP{
		ip(1): {ip(100), ip(101)},
		ip(2): {ip(100), ip(101)},
	}
	g, err := BuildGraph(contacts, GraphConfig{MinSharedContacts: 2, IDFWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 1 || g.Weight(ip(1), ip(2)) != 1 {
		t.Errorf("edges=%d weight=%d, want 1 edge of clamped weight 1", g.Edges(), g.Weight(ip(1), ip(2)))
	}
}

func TestBuildGraphValidates(t *testing.T) {
	if _, err := BuildGraph(nil, GraphConfig{MinSharedContacts: 0}); err == nil {
		t.Error("MinSharedContacts=0 accepted")
	}
	if _, err := BuildGraph(nil, GraphConfig{MinSharedContacts: 1, MaxFanIn: -1}); err == nil {
		t.Error("negative MaxFanIn accepted")
	}
}

// graphsEqual compares two graphs structurally.
func graphsEqual(a, b *Graph) bool {
	return reflect.DeepEqual(a.hosts, b.hosts) &&
		a.edges == b.edges &&
		reflect.DeepEqual(a.adj, b.adj) &&
		reflect.DeepEqual(a.wts, b.wts)
}

// randomContacts draws a small random contact structure with planted
// overlap: hosts pick destinations from a shared pool, so some pairs
// clear the edge threshold.
func randomContacts(rng *rand.Rand) map[flow.IP][]flow.IP {
	hosts := 2 + rng.Intn(20)
	pool := 3 + rng.Intn(25)
	contacts := make(map[flow.IP][]flow.IP, hosts)
	for h := 0; h < hosts; h++ {
		seen := make(map[flow.IP]bool)
		var dsts []flow.IP
		for k := rng.Intn(12); k >= 0; k-- {
			d := ip(uint32(1000 + rng.Intn(pool)))
			if !seen[d] {
				seen[d] = true
				dsts = append(dsts, d)
			}
		}
		contacts[ip(uint32(h+1))] = dsts
	}
	return contacts
}

// Property: graph construction is independent of the order destinations
// appear inside each host's contact list (i.e. of ingestion order).
func TestGraphContactOrderIndependenceProperty(t *testing.T) {
	cfg := GraphConfig{MinSharedContacts: 2, MaxFanIn: 16}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		contacts := randomContacts(rng)
		ref, err := BuildGraph(contacts, cfg)
		if err != nil {
			return false
		}
		shuffled := make(map[flow.IP][]flow.IP, len(contacts))
		for h, dsts := range contacts {
			p := make([]flow.IP, len(dsts))
			copy(p, dsts)
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			shuffled[h] = p
		}
		g, err := BuildGraph(shuffled, cfg)
		if err != nil {
			return false
		}
		return graphsEqual(ref, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// propertyRecords draws start-ordered records over a small host and
// destination population, dense enough that mutual-contact edges form.
func propertyRecords(rng *rand.Rand, n int) []flow.Record {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	records := make([]flow.Record, n)
	for i := range records {
		base = base.Add(time.Duration(1+rng.Intn(400)) * time.Millisecond)
		records[i] = flow.Record{
			Src:      ip(uint32(1 + rng.Intn(12))),
			Dst:      ip(uint32(500 + rng.Intn(30))),
			Start:    base,
			End:      base.Add(time.Second),
			Proto:    flow.TCP,
			SrcBytes: 100,
			State:    flow.StateEstablished,
		}
	}
	return records
}

// Property: any shard split of the feature source merges to the graph a
// single-source extraction produces — the sharded windowed path and the
// batch path feed the detector identical graphs.
func TestGraphShardSplitProperty(t *testing.T) {
	cfg := GraphConfig{MinSharedContacts: 2, MaxFanIn: 16}
	f := func(seed int64, shardBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := propertyRecords(rng, 300+rng.Intn(300))
		shards := 1 + int(shardBits%8)

		batch := flow.ExtractFeatureSet(records, flow.FeatureOptions{}, flow.Window{})
		ref, err := BuildGraph(batch.Contacts(), cfg)
		if err != nil {
			return false
		}

		sh := flow.NewShardedExtractorSkew(flow.FeatureOptions{}, shards, 0)
		for i := range records {
			if err := sh.Add(&records[i]); err != nil {
				return false
			}
		}
		sh.Drain()
		g, err := BuildGraph(sh.TakePane(batch.Window()).FeatureSet().Contacts(), cfg)
		if err != nil {
			return false
		}
		return graphsEqual(ref, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
