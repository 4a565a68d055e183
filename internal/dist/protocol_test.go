package dist

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/wire"
)

func testEngineConfig() engine.Config {
	return engine.Config{
		Window: time.Hour,
		Origin: time.Date(2009, 10, 6, 9, 0, 0, 0, time.UTC),
		Core:   core.DefaultConfig(),
	}
}

func testSummary() *core.ShardSummary {
	return &core.ShardSummary{
		Shard:       1,
		Shards:      4,
		Window:      flow.Window{From: time.Unix(1000, 0).UTC(), To: time.Unix(4600, 0).UTC()},
		HasContacts: true,
		Hosts: []core.HostSummary{
			{
				HostFeatures: flow.HostFeatures{
					Host:            0x0a000001,
					Flows:           12,
					SuccessfulFlows: 9,
					FailedFlows:     3,
					BytesUploaded:   48213,
					Peers:           7,
					NewPeers:        2,
					FirstSeen:       time.Unix(1030, 500).UTC(),
					LastSeen:        time.Unix(4400, 0).UTC(),
				},
				InterstitialCount: 240,
				SketchPositions:   []float64{0.5, 1.25, 3.75},
				SketchWeights:     []float64{10, 220, 10},
				Contacts:          []flow.IP{0x08080808, 0x0a000002},
			},
			{
				HostFeatures: flow.HostFeatures{
					Host:        0x0a000005,
					Flows:       3,
					FailedFlows: 3,
					FirstSeen:   time.Unix(2000, 0).UTC(),
					LastSeen:    time.Unix(2100, 0).UTC(),
				},
				InterstitialCount: 2,
			},
		},
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	want := testSummary()
	payload := EncodeSummary(7, want)
	index, got, err := DecodeSummary(payload)
	if err != nil {
		t.Fatal(err)
	}
	if index != 7 {
		t.Fatalf("window index = %d, want 7", index)
	}
	if got.Shard != want.Shard || got.Shards != want.Shards ||
		!got.Window.From.Equal(want.Window.From) || !got.Window.To.Equal(want.Window.To) ||
		got.Partial != want.Partial || got.HasContacts != want.HasContacts {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if len(got.Hosts) != len(want.Hosts) {
		t.Fatalf("hosts = %d, want %d", len(got.Hosts), len(want.Hosts))
	}
	for i := range want.Hosts {
		w, g := want.Hosts[i], got.Hosts[i]
		if g.Host != w.Host || g.Flows != w.Flows || g.SuccessfulFlows != w.SuccessfulFlows ||
			g.FailedFlows != w.FailedFlows || g.BytesUploaded != w.BytesUploaded ||
			g.Peers != w.Peers || g.NewPeers != w.NewPeers ||
			!g.FirstSeen.Equal(w.FirstSeen) || !g.LastSeen.Equal(w.LastSeen) ||
			g.InterstitialCount != w.InterstitialCount {
			t.Errorf("host %d scalar mismatch:\ngot  %+v\nwant %+v", i, g, w)
		}
		if len(g.SketchPositions) != len(w.SketchPositions) || len(g.Contacts) != len(w.Contacts) {
			t.Errorf("host %d sketch/contact lengths differ", i)
			continue
		}
		for j := range w.SketchPositions {
			if g.SketchPositions[j] != w.SketchPositions[j] || g.SketchWeights[j] != w.SketchWeights[j] {
				t.Errorf("host %d sketch bin %d differs", i, j)
			}
		}
		for j := range w.Contacts {
			if g.Contacts[j] != w.Contacts[j] {
				t.Errorf("host %d contact %d differs", i, j)
			}
		}
	}
}

// A summary from a future format version must be refused by name, not
// misparsed.
func TestSummaryCrossVersionRejected(t *testing.T) {
	payload := EncodeSummary(0, testSummary())
	var e wire.Encoder
	e.U16(SummaryVersion + 41) // splice a future version over the real one
	copy(payload[:2], e.Bytes())
	_, _, err := DecodeSummary(payload)
	if err == nil {
		t.Fatal("decoded a summary claiming a future format version")
	}
	if !strings.Contains(err.Error(), "version 42") || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("error %q does not name the offending version", err)
	}
}

// Truncation anywhere inside the payload must be a hard error — every
// prefix of a valid summary is invalid.
func TestSummaryTruncatedRejected(t *testing.T) {
	payload := EncodeSummary(0, testSummary())
	for _, cut := range []int{1, 2, 10, len(payload) / 2, len(payload) - 1} {
		if _, _, err := DecodeSummary(payload[:cut]); err == nil {
			t.Errorf("decoded a summary truncated to %d of %d bytes", cut, len(payload))
		}
	}
	// Trailing garbage is equally hard: frames are exact, not prefixed.
	if _, _, err := DecodeSummary(append(append([]byte{}, payload...), 0xEE)); err == nil {
		t.Error("decoded a summary with trailing bytes")
	} else if !strings.Contains(err.Error(), "trailing") {
		t.Errorf("error %q does not mention trailing bytes", err)
	}
}

// HostSummary.Contacts is a set sent strictly ascending: a frame whose
// contacts repeat or fall out of order breaks that invariant, which only
// a buggy or hostile shard does, and is malformed.
func TestSummaryUnorderedContactsRejected(t *testing.T) {
	for _, contacts := range [][]flow.IP{
		{0x0a000002, 0x08080808},
		{0x08080808, 0x08080808},
		{0x08080808, 0x0a000002, 0x0a000002},
	} {
		s := testSummary()
		s.Hosts[0].Contacts = contacts
		_, _, err := DecodeSummary(EncodeSummary(0, s))
		if err == nil {
			t.Errorf("decoded a summary with contacts %v", contacts)
		} else if !strings.Contains(err.Error(), "malformed") || !strings.Contains(err.Error(), "ascend") {
			t.Errorf("error %q does not call contacts %v malformed", err, contacts)
		}
	}
}

// A bit flip anywhere in a framed summary must be caught by the frame
// CRC before the payload is even parsed.
func TestSummaryFrameBitFlipRejected(t *testing.T) {
	payload := EncodeSummary(3, testSummary())
	var e wire.Encoder
	wire.AppendFrame(&e, frameSummary, seqPayload(9, payload))
	frame := e.Bytes()
	for _, bit := range []int{6 * 8, len(frame)/2*8 + 3, (len(frame) - 1) * 8} {
		corrupt := append([]byte{}, frame...)
		corrupt[bit/8] ^= 1 << (bit % 8)
		_, _, err := wire.ReadFrame(bytes.NewReader(corrupt), maxFramePayload)
		if err == nil {
			t.Errorf("frame with flipped bit %d read back clean", bit)
		}
	}
	// And an uncorrupted frame reads back byte-identical.
	id, got, err := wire.ReadFrame(bytes.NewReader(frame), maxFramePayload)
	if err != nil || id != frameSummary || !bytes.Equal(got, seqPayload(9, payload)) {
		t.Fatalf("clean frame did not round-trip: id=%d err=%v", id, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := hello{
		Version: WireVersion,
		Shard:   3,
		Resume:  99,
		FP:      FingerprintOf(testEngineConfig(), 4),
	}
	got, err := decodeHello(encodeHello(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Shard != want.Shard || got.Resume != want.Resume {
		t.Fatalf("hello header mismatch: %+v", got)
	}
	if err := got.FP.Check(want.FP); err != nil {
		t.Fatalf("round-tripped fingerprint does not match itself: %v", err)
	}
}

// A worker speaking another protocol version is refused with both
// versions named.
func TestHelloVersionMismatchRejected(t *testing.T) {
	h := hello{Version: WireVersion + 1, Shard: 0, FP: FingerprintOf(testEngineConfig(), 1)}
	_, err := decodeHello(encodeHello(h))
	if err == nil {
		t.Fatal("accepted a hello from a future protocol version")
	}
	if !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "speaks 1") {
		t.Fatalf("error %q does not name both versions", err)
	}
}

// Fingerprint.Check must name the first mismatched knob.
func TestFingerprintMismatchNamesKnob(t *testing.T) {
	base := FingerprintOf(testEngineConfig(), 4)
	cases := []struct {
		mutate func(*Fingerprint)
		want   string
	}{
		{func(f *Fingerprint) { f.Window = 2 * time.Hour }, "window"},
		{func(f *Fingerprint) { f.Shards = 8 }, "shard count"},
		{func(f *Fingerprint) { f.VolPercentile = 60 }, "vol percentile"},
		{func(f *Fingerprint) { f.MinInterstitialSamples = 10 }, "min interstitial samples"},
		{func(f *Fingerprint) { f.RawTimeScale = true }, "raw-time-scale"},
	}
	for _, c := range cases {
		peer := base
		c.mutate(&peer)
		err := peer.Check(base)
		if err == nil {
			t.Errorf("fingerprint differing in %q passed Check", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not name knob %q", err, c.want)
		}
	}
	if err := base.Check(base); err != nil {
		t.Errorf("identical fingerprints rejected: %v", err)
	}
}

// End-to-end handshake refusal: a coordinator serving a connection whose
// hello carries a different configuration must return the descriptive
// mismatch error.
func TestServeConnRefusesMismatchedConfig(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: testEngineConfig()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	other := testEngineConfig()
	other.Core.HMPercentile = 70

	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- coord.ServeConn(server) }()
	hb := encodeHello(hello{Version: WireVersion, Shard: 0, FP: FingerprintOf(other, 2)})
	if err := wire.WriteFrame(client, frameHello, hb); err != nil {
		t.Fatal(err)
	}
	err = <-errc
	client.Close()
	if err == nil {
		t.Fatal("coordinator served a connection with a mismatched fingerprint")
	}
	if !strings.Contains(err.Error(), "fingerprint mismatch") || !strings.Contains(err.Error(), "hm percentile") {
		t.Fatalf("error %q does not describe the mismatch", err)
	}
}

// A hello claiming a shard outside the deployment is refused.
func TestServeConnRefusesOutOfRangeShard(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: testEngineConfig()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- coord.ServeConn(server) }()
	hb := encodeHello(hello{Version: WireVersion, Shard: 5, FP: FingerprintOf(testEngineConfig(), 2)})
	if err := wire.WriteFrame(client, frameHello, hb); err != nil {
		t.Fatal(err)
	}
	err = <-errc
	client.Close()
	if err == nil || !strings.Contains(err.Error(), "shard 5") {
		t.Fatalf("out-of-range shard not refused by name: %v", err)
	}
}

// The hello is read before the peer has proven anything, so its length
// field must be held to hello size: a first frame header declaring a
// summary-sized payload is refused on the six header bytes alone, not
// allocated and waited for.
func TestServeConnRefusesOversizedHello(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: testEngineConfig()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	go func() { errc <- coord.ServeConn(server) }()
	var hdr wire.Encoder
	hdr.U16(frameHello)
	hdr.U32(200 << 20)
	if _, err := client.Write(hdr.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("oversized hello not refused as implausible: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator is still waiting for a 200 MiB hello payload")
	}
}
