package kademlia

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"plotters/internal/flow"
)

func TestNodeIDXORMetricLaws(t *testing.T) {
	f := func(a, b, c [IDBytes]byte) bool {
		x, y, z := NodeID(a), NodeID(b), NodeID(c)
		// Identity: d(x,x) = 0.
		if x.XOR(x) != (NodeID{}) {
			return false
		}
		// Symmetry.
		if x.XOR(y) != y.XOR(x) {
			return false
		}
		// XOR triangle equality: d(x,z) = d(x,y) ⊕ d(y,z), and numeric
		// triangle inequality d(x,z) <= d(x,y) + d(y,z) follows from
		// carry-free addition: verify the weaker comparison form where
		// d(x,z) ≤ max is not generally true, but XOR-of-distances holds.
		if x.XOR(z) != x.XOR(y).XOR(y.XOR(z)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNodeIDCmp(t *testing.T) {
	a := NodeID{0x00, 0x01}
	b := NodeID{0x00, 0x02}
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less wrong")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := NodeID{0b10000000}
	b := NodeID{0b01000000}
	if got := a.CommonPrefixLen(b); got != 0 {
		t.Errorf("cpl = %d, want 0", got)
	}
	c := NodeID{0b10000001}
	if got := a.CommonPrefixLen(c); got != 7 {
		t.Errorf("cpl = %d, want 7", got)
	}
	if got := a.CommonPrefixLen(a); got != IDBits {
		t.Errorf("cpl self = %d, want %d", got, IDBits)
	}
}

func TestIDStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		id := RandomID(rng)
		back, err := hex.DecodeString(id.String())
		if err != nil || !bytes.Equal(back, id[:]) {
			t.Fatalf("round trip failed: %x, %v", back, err)
		}
	}
}

func TestKeyIDDeterministic(t *testing.T) {
	if KeyID("storm-day-42") != KeyID("storm-day-42") {
		t.Error("KeyID not deterministic")
	}
	if KeyID("a") == KeyID("b") {
		t.Error("KeyID collisions for distinct content")
	}
}

func mkContact(rng *rand.Rand) Contact {
	return Contact{ID: RandomID(rng), Addr: flow.IP(rng.Uint32()), Port: 7871}
}

func TestRoutingTableUpdateAndCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	self := RandomID(rng)
	rt := NewRoutingTable(self, 4)
	if rt.K() != 4 || rt.Self() != self {
		t.Error("table config wrong")
	}
	// Own ID is never stored.
	rt.Update(Contact{ID: self})
	if rt.Size() != 0 {
		t.Error("self inserted")
	}
	// Fill with many contacts; every bucket must respect capacity.
	for i := 0; i < 2000; i++ {
		rt.Update(mkContact(rng))
	}
	for i, b := range rt.buckets {
		if len(b) > 4 {
			t.Fatalf("bucket %d has %d entries", i, len(b))
		}
	}
	if rt.Size() == 0 || rt.Size() != len(rt.Contacts()) {
		t.Errorf("size %d vs contacts %d", rt.Size(), len(rt.Contacts()))
	}
}

func TestRoutingTableRefreshMovesToTail(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	self := NodeID{} // zero id
	rt := NewRoutingTable(self, 2)
	// Two contacts in the same bucket (leading bit 1 → bucket 0).
	a := Contact{ID: NodeID{0x80, 0x01}, Addr: 1}
	b := Contact{ID: NodeID{0x80, 0x02}, Addr: 2}
	c := Contact{ID: NodeID{0x80, 0x03}, Addr: 3}
	rt.Update(a)
	rt.Update(b)
	// Refresh a: now b is least-recently-seen.
	rt.Update(a)
	// Insert c into the full bucket: b must be evicted.
	rt.Update(c)
	if !rt.Contains(a.ID) || !rt.Contains(c.ID) || rt.Contains(b.ID) {
		t.Error("LRS eviction order wrong")
	}
	if rt.Size() != 2 {
		t.Errorf("size = %d, want 2", rt.Size())
	}
	_ = rng
}

func TestRoutingTableRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rt := NewRoutingTable(RandomID(rng), 0) // default k
	c := mkContact(rng)
	rt.Update(c)
	if !rt.Contains(c.ID) {
		t.Fatal("contact missing after update")
	}
	if !rt.Remove(c.ID) {
		t.Error("Remove returned false")
	}
	if rt.Contains(c.ID) || rt.Size() != 0 {
		t.Error("contact still present after remove")
	}
	if rt.Remove(c.ID) {
		t.Error("double remove returned true")
	}
	if rt.Remove(rt.Self()) {
		t.Error("removing self returned true")
	}
}

func TestClosestOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rt := NewRoutingTable(RandomID(rng), 8)
	for i := 0; i < 200; i++ {
		rt.Update(mkContact(rng))
	}
	target := RandomID(rng)
	closest := rt.Closest(target, 10)
	if len(closest) != 10 {
		t.Fatalf("closest returned %d", len(closest))
	}
	for i := 1; i < len(closest); i++ {
		if closest[i].ID.XOR(target).Less(closest[i-1].ID.XOR(target)) {
			t.Fatal("closest not in XOR order")
		}
	}
	// Asking for more than stored returns all.
	all := rt.Closest(target, 100000)
	if len(all) != rt.Size() {
		t.Errorf("Closest(all) = %d, want %d", len(all), rt.Size())
	}
}

// testOverlayConfig is a churny overlay — sessions of tens of minutes,
// hours offline — for the caller to size (Nodes, Horizon).
func testOverlayConfig(start time.Time) OverlayConfig {
	return OverlayConfig{
		Start:         start,
		MedianSession: 25 * time.Minute,
		MedianOffline: 2 * time.Hour,
		SessionSigma:  1.0,
		Port:          7871,
	}
}

func testOverlay(t *testing.T, nodes int, seed int64) *Overlay {
	t.Helper()
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	cfg := testOverlayConfig(start)
	cfg.Nodes = nodes
	cfg.Horizon = 48 * time.Hour
	cfg.AvoidSubnets = []flow.Subnet{flow.MustParseSubnet("128.2.0.0/16")}
	ov, err := NewOverlay(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func TestOverlayConstruction(t *testing.T) {
	ov := testOverlay(t, 300, 36)
	if ov.Size() != 300 {
		t.Fatalf("size = %d", ov.Size())
	}
	campus := flow.MustParseSubnet("128.2.0.0/16")
	seen := make(map[flow.IP]bool)
	for i := 0; i < ov.Size(); i++ {
		c := ov.Contact(i)
		if campus.Contains(c.Addr) {
			t.Fatalf("overlay node %d inside avoided subnet: %v", i, c.Addr)
		}
		first, _, _, _ := c.Addr.Octets()
		if first == 0 || first == 10 || first == 127 || first >= 224 {
			t.Fatalf("overlay node %d in reserved space: %v", i, c.Addr)
		}
		if seen[c.Addr] {
			t.Fatalf("duplicate overlay address %v", c.Addr)
		}
		seen[c.Addr] = true
	}
}

func TestOverlayConfigValidation(t *testing.T) {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	bad := []OverlayConfig{
		{Nodes: 0, Horizon: time.Hour, MedianSession: time.Minute, MedianOffline: time.Minute},
		{Nodes: 5, Horizon: 0, MedianSession: time.Minute, MedianOffline: time.Minute},
		{Nodes: 5, Horizon: time.Hour, MedianSession: 0, MedianOffline: time.Minute},
		{Nodes: 5, Horizon: time.Hour, MedianSession: time.Minute, MedianOffline: 0},
	}
	for i, cfg := range bad {
		cfg.Start = start
		if _, err := NewOverlay(cfg, rng); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestOverlayChurn(t *testing.T) {
	ov := testOverlay(t, 500, 37)
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	// Some — but not all — nodes are online at any sampled instant.
	for _, offset := range []time.Duration{6 * time.Hour, 24 * time.Hour, 40 * time.Hour} {
		at := start.Add(offset)
		n := 0
		for i := 0; i < ov.Size(); i++ {
			if ov.Online(ov.Contact(i).ID, at) {
				n++
			}
		}
		if n == 0 || n == ov.Size() {
			t.Errorf("online count at +%v = %d of %d; expected churn", offset, n, ov.Size())
		}
	}
	// A node's state changes over time (churn) for at least one node.
	changed := false
	for i := 0; i < ov.Size() && !changed; i++ {
		a := ov.onlineIdx(i, start.Add(2*time.Hour))
		b := ov.onlineIdx(i, start.Add(30*time.Hour))
		if a != b {
			changed = true
		}
	}
	if !changed {
		t.Error("no node changed online state across 28 hours")
	}
	// Unknown id is never online.
	if ov.Online(NodeID{0xFF}, start) {
		t.Error("unknown node reported online")
	}
}

func TestOverlaySampleContacts(t *testing.T) {
	ov := testOverlay(t, 100, 38)
	rng := rand.New(rand.NewSource(39))
	sample := ov.SampleContacts(rng, 20)
	if len(sample) != 20 {
		t.Fatalf("sample size = %d", len(sample))
	}
	seen := make(map[NodeID]bool)
	for _, c := range sample {
		if seen[c.ID] {
			t.Fatal("duplicate in sample")
		}
		seen[c.ID] = true
	}
	if got := ov.SampleContacts(rng, 1000); len(got) != 100 {
		t.Errorf("oversample = %d, want 100", len(got))
	}
}

// ClosestAny is the stale routing-table view: the n nearest nodes in XOR
// order whether or not they are online — the overlay's churn must show
// through it.
func TestClosestAny(t *testing.T) {
	ov := testOverlay(t, 400, 40)
	at := time.Date(2007, time.November, 5, 12, 0, 0, 0, time.UTC)
	target := KeyID("some-key")
	got := ov.ClosestAny(target, 40)
	if len(got) != 40 {
		t.Fatalf("got %d nodes, want 40", len(got))
	}
	online := 0
	for i := range got {
		if ov.Online(got[i].ID, at) {
			online++
		}
		if i > 0 && got[i].ID.XOR(target).Less(got[i-1].ID.XOR(target)) {
			t.Fatal("ClosestAny not in XOR order")
		}
	}
	if online == 0 || online == len(got) {
		t.Errorf("%d of %d closest nodes online; expected a churned mix", online, len(got))
	}
}

func TestIterativeFindNode(t *testing.T) {
	ov := testOverlay(t, 600, 41)
	rng := rand.New(rand.NewSource(42))
	at := time.Date(2007, time.November, 5, 12, 0, 0, 0, time.UTC)

	rt := NewRoutingTable(RandomID(rng), DefaultK)
	seeds := ov.SampleContacts(rng, 10)
	attempts := Bootstrap(rt, ov, seeds, at, rng, DefaultLookupConfig())
	if len(attempts) == 0 {
		t.Fatal("bootstrap issued no queries")
	}
	if rt.Size() == 0 {
		t.Fatal("routing table empty after bootstrap")
	}

	// A follow-up lookup issues queries and respects the budget.
	cfg := DefaultLookupConfig()
	cfg.MaxQueries = 10
	attempts = IterativeFindNode(rt, ov, KeyID("search"), at.Add(time.Minute), rng, cfg)
	if len(attempts) == 0 || len(attempts) > 10 {
		t.Fatalf("attempts = %d, want 1..10", len(attempts))
	}
	// Mixed outcomes are expected given churn; all peers must be overlay
	// members.
	for _, a := range attempts {
		if _, ok := ov.byAddr[a.Peer.Addr]; !ok {
			t.Fatal("attempt against non-overlay peer")
		}
	}
}

func TestIterativeFindNodeConverges(t *testing.T) {
	ov := testOverlay(t, 600, 43)
	rng := rand.New(rand.NewSource(44))
	at := time.Date(2007, time.November, 5, 12, 0, 0, 0, time.UTC)
	rt := NewRoutingTable(RandomID(rng), DefaultK)
	Bootstrap(rt, ov, ov.SampleContacts(rng, 20), at, rng, DefaultLookupConfig())

	// Repeated lookups with a warm table should mostly hit known peers —
	// the low-churn behavior the paper's θ_churn test keys on.
	target := KeyID("repeated-search")
	first := IterativeFindNode(rt, ov, target, at.Add(time.Minute), rng, DefaultLookupConfig())
	second := IterativeFindNode(rt, ov, target, at.Add(2*time.Minute), rng, DefaultLookupConfig())
	if len(first) == 0 || len(second) == 0 {
		t.Fatal("lookups issued no queries")
	}
	overlap := 0
	seen := make(map[NodeID]bool)
	for _, a := range first {
		seen[a.Peer.ID] = true
	}
	for _, a := range second {
		if seen[a.Peer.ID] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Error("no peer overlap between consecutive identical lookups")
	}
}

func TestLookupEmptyTable(t *testing.T) {
	ov := testOverlay(t, 50, 45)
	rng := rand.New(rand.NewSource(46))
	rt := NewRoutingTable(RandomID(rng), DefaultK)
	at := time.Date(2007, time.November, 5, 12, 0, 0, 0, time.UTC)
	attempts := IterativeFindNode(rt, ov, KeyID("x"), at, rng, DefaultLookupConfig())
	if len(attempts) != 0 {
		t.Errorf("lookup with empty table issued %d queries", len(attempts))
	}
}

func BenchmarkIterativeFindNode(b *testing.B) {
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	cfg := testOverlayConfig(start)
	cfg.Nodes = 1000
	cfg.Horizon = 24 * time.Hour
	ov, err := NewOverlay(cfg, rand.New(rand.NewSource(47)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	rt := NewRoutingTable(RandomID(rng), DefaultK)
	Bootstrap(rt, ov, ov.SampleContacts(rng, 20), start.Add(time.Hour), rng, DefaultLookupConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IterativeFindNode(rt, ov, RandomID(rng), start.Add(2*time.Hour), rng, DefaultLookupConfig())
	}
}

func TestPublishAndFindValue(t *testing.T) {
	// A mostly-online overlay and the real-world replication parameter
	// k=20: under heavy churn with k=8, stored values are frequently
	// unreachable — the exact reason production Kademlia uses k=20 and
	// periodic republishing.
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	cfg := testOverlayConfig(start)
	cfg.Nodes = 500
	cfg.Horizon = 48 * time.Hour
	cfg.MedianSession = 4 * time.Hour
	cfg.MedianOffline = 20 * time.Minute
	ov, err := NewOverlay(cfg, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	lcfg := DefaultLookupConfig()
	lcfg.K = 20
	lcfg.MaxQueries = 80
	rng := rand.New(rand.NewSource(52))
	at := time.Date(2007, time.November, 5, 12, 0, 0, 0, time.UTC)

	// Publisher joins and publishes a command under a key.
	pub := NewRoutingTable(RandomID(rng), 20)
	Bootstrap(pub, ov, ov.SampleContacts(rng, 20), at, rng, lcfg)
	key := KeyID("storm-cmd-2007-11-05")
	res := IterativePublish(pub, ov, key, "update-url", at, rng, lcfg)
	if len(res.Lookup) == 0 {
		t.Fatal("publish issued no lookup queries")
	}
	if res.Stored == 0 {
		t.Fatal("publish stored on no nodes")
	}
	if res.Stored != len(successes(res.Stores)) {
		t.Errorf("stored = %d, successful stores = %d", res.Stored, len(successes(res.Stores)))
	}

	// An independent searcher finds the value.
	searcher := NewRoutingTable(RandomID(rng), 20)
	Bootstrap(searcher, ov, ov.SampleContacts(rng, 20), at, rng, lcfg)
	found := IterativeFindValue(searcher, ov, key, at.Add(time.Minute), rng, lcfg)
	if !found.Found {
		t.Fatalf("value not found after %d attempts", len(found.Attempts))
	}
	if found.Value != "update-url" {
		t.Errorf("value = %q", found.Value)
	}

	// A search for an unpublished key fails but still issues traffic.
	missing := IterativeFindValue(searcher, ov, KeyID("never-published"), at.Add(2*time.Minute), rng, lcfg)
	if missing.Found {
		t.Error("found a value that was never published")
	}
	if len(missing.Attempts) == 0 {
		t.Error("no attempts for missing key")
	}
}

// walkWorld builds a seeded, mostly-online overlay with one published key
// and a bootstrapped searcher. Every call returns an identical, independent
// copy, so two walks can be run side by side from the same state.
func walkWorld(t *testing.T) (*Overlay, *RoutingTable, *rand.Rand, LookupConfig, NodeID) {
	t.Helper()
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	cfg := testOverlayConfig(start)
	cfg.Nodes = 500
	cfg.Horizon = 48 * time.Hour
	cfg.MedianSession = 4 * time.Hour
	cfg.MedianOffline = 20 * time.Minute
	ov, err := NewOverlay(cfg, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	lcfg := DefaultLookupConfig()
	lcfg.K = 20
	lcfg.MaxQueries = 80
	rng := rand.New(rand.NewSource(62))
	at := time.Date(2007, time.November, 5, 12, 0, 0, 0, time.UTC)
	pub := NewRoutingTable(RandomID(rng), 20)
	Bootstrap(pub, ov, ov.SampleContacts(rng, 20), at, rng, lcfg)
	key := KeyID("walk-key-1")
	if IterativePublish(pub, ov, key, "v", at, rng, lcfg).Stored == 0 {
		t.Fatal("publish stored on no nodes")
	}
	searcher := NewRoutingTable(RandomID(rng), 20)
	Bootstrap(searcher, ov, ov.SampleContacts(rng, 20), at, rng, lcfg)
	return ov, searcher, rng, lcfg, key
}

// FIND_VALUE is FIND_NODE's walk with an early stop: the same queries in
// the same order, ending right after the first responder that holds the
// key has been refreshed in the routing table.
func TestFindValueWalksLikeFindNode(t *testing.T) {
	at := time.Date(2007, time.November, 5, 12, 1, 0, 0, time.UTC)

	// Nobody holds the key: the two walks are indistinguishable.
	ovV, rtV, rngV, lcfg, _ := walkWorld(t)
	ovN, rtN, rngN, _, _ := walkWorld(t)
	missing := KeyID("never-published")
	fv := IterativeFindValue(rtV, ovV, missing, at, rngV, lcfg)
	fn := IterativeFindNode(rtN, ovN, missing, at, rngN, lcfg)
	if fv.Found || len(fv.Attempts) == 0 {
		t.Fatalf("missing key: found=%v after %d attempts", fv.Found, len(fv.Attempts))
	}
	if !reflect.DeepEqual(fv.Attempts, fn) {
		t.Errorf("missing key: FindValue issued %d attempts, FindNode %d, or in another order", len(fv.Attempts), len(fn))
	}
	if !reflect.DeepEqual(rtV.Contacts(), rtN.Contacts()) {
		t.Error("missing key: routing tables diverged")
	}

	// The key is published: FindValue's attempts are a prefix of
	// FindNode's that ends at the first responder holding the value.
	ovV, rtV, rngV, lcfg, key := walkWorld(t)
	ovN, rtN, rngN, _, _ = walkWorld(t)
	fv = IterativeFindValue(rtV, ovV, key, at, rngV, lcfg)
	fn = IterativeFindNode(rtN, ovN, key, at, rngN, lcfg)
	n := len(fv.Attempts)
	if !fv.Found || fv.Value != "v" {
		t.Fatalf("published key: found=%v value=%q", fv.Found, fv.Value)
	}
	if n < 2 || n >= len(fn) {
		t.Fatalf("published key: FindValue stopped after %d of FindNode's %d attempts; the seeds no longer exercise an early stop", n, len(fn))
	}
	if !reflect.DeepEqual(fv.Attempts, fn[:n]) {
		t.Error("published key: FindValue's attempts are not a prefix of FindNode's")
	}
	for i, a := range fv.Attempts {
		_, holds := ovV.Value(a.Peer.ID, key)
		if first := a.Responded && holds; first != (i == n-1) {
			t.Errorf("attempt %d: responded=%v holds=%v; the walk must stop at the first responding holder", i, a.Responded, holds)
		}
	}

	// The stop comes right after the holder's refresh: a FindNode walk cut
	// one query short, plus that refresh, leaves the same routing table.
	ovC, rtC, rngC, cut, _ := walkWorld(t)
	cut.MaxQueries = n - 1
	IterativeFindNode(rtC, ovC, key, at, rngC, cut)
	holder := fv.Attempts[n-1].Peer
	holder.LastSeen = at
	rtC.Update(holder)
	if !reflect.DeepEqual(rtV.Contacts(), rtC.Contacts()) {
		t.Error("published key: FindValue's routing table is not FindNode's at the stop")
	}
}

func successes(attempts []Attempt) []Attempt {
	var out []Attempt
	for _, a := range attempts {
		if a.Responded {
			out = append(out, a)
		}
	}
	return out
}

func TestStoreIgnoresUnknownNode(t *testing.T) {
	ov := testOverlay(t, 50, 53)
	ov.Store(NodeID{0xAB}, KeyID("k"), "v")
	if _, ok := ov.Value(NodeID{0xAB}, KeyID("k")); ok {
		t.Error("value stored at non-member node")
	}
	if _, ok := ov.Value(ov.Contact(0).ID, KeyID("k")); ok {
		t.Error("value appeared without a store")
	}
}
