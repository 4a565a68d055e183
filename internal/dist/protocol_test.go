package dist

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/histogram"
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
					Host:          0x0a000001,
					Flows:         12,
					FailedFlows:   3,
					BytesUploaded: 48213,
					Peers:         7,
					NewPeers:      2,
					FirstSeen:     time.Unix(1030, 500).UTC(),
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
		if g.Host != w.Host || g.Flows != w.Flows ||
			g.FailedFlows != w.FailedFlows || g.BytesUploaded != w.BytesUploaded ||
			g.Peers != w.Peers || g.NewPeers != w.NewPeers ||
			!g.FirstSeen.Equal(w.FirstSeen) ||
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

// A decoded summary's per-host slices share one array of each kind, and
// none has room to grow: appending to one host's sketch or contacts
// leaves the next host's as decoded.
func TestSummarySlicesDoNotOverlap(t *testing.T) {
	want := testSummary()
	third := want.Hosts[0]
	third.Host = 0x0a000009
	third.SketchPositions = []float64{2, 4}
	third.SketchWeights = []float64{1, 239}
	third.Contacts = []flow.IP{0x01010101, 0x02020202, 0x03030303}
	want.Hosts = append(want.Hosts, third)
	_, got, err := DecodeSummary(EncodeSummary(0, want))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range got.Hosts {
		if cap(h.SketchPositions) != len(h.SketchPositions) || cap(h.SketchWeights) != len(h.SketchWeights) || cap(h.Contacts) != len(h.Contacts) {
			t.Fatalf("host %d: a slice has room past its end", i)
		}
	}
	first := &got.Hosts[0]
	first.SketchPositions = append(first.SketchPositions, -1)
	first.SketchWeights = append(first.SketchWeights, -1)
	first.Contacts = append(first.Contacts, 0xFFFFFFFF)
	last := got.Hosts[2]
	if !slices.Equal(last.SketchPositions, third.SketchPositions) || !slices.Equal(last.SketchWeights, third.SketchWeights) ||
		!slices.Equal(last.Contacts, third.Contacts) {
		t.Fatalf("appending to host 0's slices changed host 2's: %+v", last)
	}
}

// A summary from an earlier or a future format version must be refused
// by name, not misparsed.
func TestSummaryCrossVersionRejected(t *testing.T) {
	for _, version := range []uint16{1, 42} {
		payload := EncodeSummary(0, testSummary())
		var e wire.Encoder
		e.U16(version) // splice another version over the real one
		copy(payload[:2], e.Bytes())
		_, _, err := DecodeSummary(payload)
		if err == nil {
			t.Fatalf("decoded a summary claiming format version %d", version)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d ", version)) || !strings.Contains(err.Error(), "not supported") {
			t.Fatalf("error %q does not name the offending version", err)
		}
	}
}

// A host's successful flows are its flows less its failed ones, so a
// summary claiming more failed flows than flows, or fewer than none,
// is malformed.
func TestSummaryFailedBeyondFlowsRejected(t *testing.T) {
	for _, failed := range []int{13, -1} {
		s := testSummary()
		s.Hosts[0].FailedFlows = failed
		_, _, err := DecodeSummary(EncodeSummary(0, s))
		if err == nil || !strings.Contains(err.Error(), "malformed") || !strings.Contains(err.Error(), "failed of 12 flows") {
			t.Errorf("%d failed of 12 flows: error %v", failed, err)
		}
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

// A sketch is the non-empty bins of a histogram: finite positions,
// strictly ascending, and finite positive weights. A frame breaking that
// would pass the wire and fail θ_hm's signature check at the coordinator
// after the window's other frames were consumed, so it is malformed.
func TestSummaryInvalidSketchRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		positions, weights []float64
		want               string
	}{
		{[]float64{0.5, 1.25, 3.75}, []float64{10, nan, 10}, "weight 1"},
		{[]float64{3.75, 1.25, 0.5}, []float64{10, 220, 10}, "position 1"},
		{[]float64{0.5, 0.5, 3.75}, []float64{10, 220, 10}, "position 1"},
		{[]float64{0.5, 1.25, inf}, []float64{10, 220, 10}, "position 2"},
		{[]float64{nan, 1.25, 3.75}, []float64{10, 220, 10}, "position 0"},
		{[]float64{0.5, 1.25, 3.75}, []float64{0, 220, 10}, "weight 0"},
		{[]float64{0.5, 1.25, 3.75}, []float64{10, -220, 10}, "weight 1"},
		{[]float64{0.5, 1.25, 3.75}, []float64{10, 220, inf}, "weight 2"},
	} {
		s := testSummary()
		s.Hosts[0].SketchPositions, s.Hosts[0].SketchWeights = tc.positions, tc.weights
		_, _, err := DecodeSummary(EncodeSummary(0, s))
		if err == nil {
			t.Errorf("decoded a summary with sketch %v / %v", tc.positions, tc.weights)
		} else if !strings.Contains(err.Error(), "malformed") || !strings.Contains(err.Error(), "sketch "+tc.want) {
			t.Errorf("error %q does not call sketch %s of %v / %v malformed", err, tc.want, tc.positions, tc.weights)
		}
	}
}

// A sketch is a histogram's non-empty bins, so one longer than
// histogram.MaxBins is no correct shard's, however well ordered.
func TestSummaryOversizedSketchRejected(t *testing.T) {
	for _, bins := range []int{histogram.MaxBins, histogram.MaxBins + 1} {
		s := testSummary()
		h := &s.Hosts[0]
		h.SketchPositions, h.SketchWeights = make([]float64, bins), make([]float64, bins)
		for j := range h.SketchPositions {
			h.SketchPositions[j], h.SketchWeights[j] = float64(j), 1
		}
		_, got, err := DecodeSummary(EncodeSummary(0, s))
		if bins <= histogram.MaxBins {
			if err != nil || len(got.Hosts[0].SketchPositions) != bins {
				t.Errorf("a %d-bin sketch was refused: %v", bins, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "malformed") || !strings.Contains(err.Error(), fmt.Sprintf("%d bins", bins)) {
			t.Errorf("a %d-bin sketch: error %v, want it called malformed", bins, err)
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
		FP:      FingerprintOf(testEngineConfig(), 4),
	}
	data := encodeHello(want)
	if len(data) != 56 {
		t.Errorf("hello is %d bytes; maxHelloPayload's comment says 56", len(data))
	}
	got, err := decodeHello(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Shard != want.Shard {
		t.Fatalf("hello header mismatch: %+v", got)
	}
	if err := got.FP.Check(want.FP); err != nil {
		t.Fatalf("round-tripped fingerprint does not match itself: %v", err)
	}
}

// A worker speaking another protocol version, older or newer, is
// refused with both versions named.
func TestHelloVersionMismatchRejected(t *testing.T) {
	for _, v := range []uint16{WireVersion - 1, WireVersion + 1} {
		h := hello{Version: v, Shard: 0, FP: FingerprintOf(testEngineConfig(), 1)}
		_, err := decodeHello(encodeHello(h))
		if err == nil {
			t.Fatalf("accepted a hello from protocol version %d", v)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) || !strings.Contains(err.Error(), fmt.Sprintf("speaks %d", WireVersion)) {
			t.Fatalf("error %q does not name both versions", err)
		}
	}
}

// A zero Origin is the epoch grid, so it matches an explicit epoch
// origin. It was once compared as the zero time's Unix nanoseconds, a
// value out of int64's range, and refused.
func TestFingerprintZeroOriginIsTheEpoch(t *testing.T) {
	zero, epoch := testEngineConfig(), testEngineConfig()
	zero.Origin, epoch.Origin = time.Time{}, time.Unix(0, 0)
	if err := FingerprintOf(zero, 2).Check(FingerprintOf(epoch, 2)); err != nil {
		t.Fatal(err)
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
		{func(f *Fingerprint) { f.Origin = f.Origin.Add(time.Minute) }, "origin"},
		{func(f *Fingerprint) { f.MinInterstitialSamples = 10 }, "min interstitial samples"},
		{func(f *Fingerprint) { f.RawTimeScale = true }, "raw-time-scale"},
		// Slide == Window builds the same tumbling engine as Slide 0.
		{func(f *Fingerprint) { f.Slide = f.Window }, ""},
	}
	for _, c := range cases {
		peer := base
		c.mutate(&peer)
		err := peer.Check(base)
		if c.want == "" {
			if err != nil {
				t.Errorf("fingerprints of equal engines rejected: %v", err)
			}
			continue
		}
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
// mismatch error, and send it to the worker in a refusal frame.
func TestServeConnRefusesMismatchedConfig(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Engine: testEngineConfig()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	other := testEngineConfig()
	other.Core.MinInterstitialSamples = 30

	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- coord.ServeConn(server) }()
	hb := encodeHello(hello{Version: WireVersion, Shard: 0, FP: FingerprintOf(other, 2)})
	if err := wire.WriteFrame(client, frameHello, hb); err != nil {
		t.Fatal(err)
	}
	reason := readRefusal(t, client)
	err = <-errc
	client.Close()
	if err == nil {
		t.Fatal("coordinator served a connection with a mismatched fingerprint")
	}
	if !strings.Contains(err.Error(), "fingerprint mismatch") || !strings.Contains(err.Error(), "min interstitial samples") {
		t.Fatalf("error %q does not describe the mismatch", err)
	}
	if reason != err.Error() {
		t.Fatalf("refusal frame says %q, ServeConn returned %q", reason, err)
	}
}

// readRefusal reads the one frame a refusing coordinator sends and
// returns its text.
func readRefusal(t *testing.T, conn net.Conn) string {
	t.Helper()
	id, payload, err := wire.ReadFrame(conn, 1<<16)
	if err != nil || id != frameRefuse {
		t.Fatalf("want a refusal frame (%d), got frame %d, err %v", frameRefuse, id, err)
	}
	return string(payload)
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
	reason := readRefusal(t, client)
	err = <-errc
	client.Close()
	if err == nil || !strings.Contains(err.Error(), "shard 5") || reason != err.Error() {
		t.Fatalf("out-of-range shard not refused by name: %v (refusal frame %q)", err, reason)
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
