package collector

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
)

// wireRecords returns millisecond-aligned records — what the v5 wire
// format can carry losslessly (no payload, no responder counters).
func wireRecords() []flow.Record {
	t0 := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	return []flow.Record{
		{
			Src: flow.MakeIP(128, 2, 0, 1), Dst: flow.MakeIP(66, 35, 250, 150),
			SrcPort: 51234, DstPort: 80, Proto: flow.TCP,
			Start: t0, End: t0.Add(2 * time.Second),
			SrcPkts: 5, SrcBytes: 840,
			State: flow.StateEstablished,
		},
		{
			Src: flow.MakeIP(128, 2, 7, 9), Dst: flow.MakeIP(87, 4, 11, 2),
			SrcPort: 6346, DstPort: 6346, Proto: flow.UDP,
			Start: t0.Add(time.Minute + 250*time.Millisecond), End: t0.Add(time.Minute + 550*time.Millisecond),
			SrcPkts: 1, SrcBytes: 60,
			State: flow.StateFailed,
		},
		{
			Src: flow.MakeIP(128, 2, 200, 3), Dst: flow.MakeIP(201, 7, 8, 9),
			SrcPort: 4662, DstPort: 4662, Proto: flow.TCP,
			Start: t0.Add(2 * time.Minute), End: t0.Add(10 * time.Minute),
			SrcPkts: 900, SrcBytes: 4_000_000,
			State: flow.StateEstablished,
		},
		{
			Src: flow.MakeIP(128, 237, 1, 1), Dst: flow.MakeIP(10, 0, 0, 7),
			SrcPort: 53000, DstPort: 22, Proto: flow.TCP,
			Start: t0.Add(3 * time.Minute), End: t0.Add(3 * time.Minute),
			SrcPkts: 1, SrcBytes: 44,
			State: flow.StateFailed,
		},
	}
}

func TestV5RoundTrip(t *testing.T) {
	records := wireRecords()
	pkt, err := AppendV5(nil, records, 17)
	if err != nil {
		t.Fatal(err)
	}
	if want := V5HeaderSize + len(records)*V5RecordSize; len(pkt) != want {
		t.Fatalf("packet length = %d, want %d", len(pkt), want)
	}
	hdr, got, err := DecodeV5(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Count != len(records) || hdr.FlowSequence != 17 {
		t.Errorf("header count=%d seq=%d, want %d/17", hdr.Count, hdr.FlowSequence, len(records))
	}
	if !reflect.DeepEqual(got, records) {
		t.Errorf("round trip changed records:\ngot  %v\nwant %v", got, records)
	}
}

func TestV5TimestampsFloorToMillisecond(t *testing.T) {
	t0 := time.Date(2007, time.November, 5, 9, 0, 0, 123_456_789, time.UTC)
	in := []flow.Record{{
		Src: 1, Dst: 2, Proto: flow.TCP,
		Start: t0, End: t0.Add(1234567 * time.Nanosecond),
		State: flow.StateEstablished,
	}}
	pkt, err := AppendV5(nil, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeV5(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := t0.Truncate(time.Millisecond)
	wantEnd := in[0].End.Truncate(time.Millisecond)
	if !out[0].Start.Equal(wantStart) || !out[0].End.Equal(wantEnd) {
		t.Errorf("decoded times %v/%v, want ms floors %v/%v", out[0].Start, out[0].End, wantStart, wantEnd)
	}
}

func TestV5StateMapping(t *testing.T) {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		proto flow.Proto
		state flow.ConnState
	}{
		{flow.TCP, flow.StateEstablished},
		{flow.TCP, flow.StateFailed},
		{flow.UDP, flow.StateEstablished},
		{flow.UDP, flow.StateFailed},
		{flow.ICMP, flow.StateEstablished},
		{flow.ICMP, flow.StateFailed},
	} {
		in := []flow.Record{{Src: 1, Dst: 2, Proto: tc.proto, Start: t0, End: t0, State: tc.state}}
		pkt, err := AppendV5(nil, in, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := DecodeV5(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].State != tc.state {
			t.Errorf("%v/%v decoded as %v", tc.proto, tc.state, out[0].State)
		}
	}
}

func TestV5RealExporterFlagDefaults(t *testing.T) {
	// A hardware exporter zeroes tcp_flags on non-TCP flows: decode as
	// established. A flagless TCP flow never saw an ACK: failed.
	if st := flagsState(flow.UDP, 0); st != flow.StateEstablished {
		t.Errorf("flagless UDP = %v, want established", st)
	}
	if st := flagsState(flow.TCP, 0); st != flow.StateFailed {
		t.Errorf("flagless TCP = %v, want failed", st)
	}
	if st := flagsState(flow.TCP, tcpSYN|tcpACK|tcpFIN|tcpRST); st != flow.StateEstablished {
		t.Errorf("TCP with ACK among flag soup = %v, want established", st)
	}
}

func TestV5CounterSaturation(t *testing.T) {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	in := []flow.Record{{
		Src: 1, Dst: 2, Proto: flow.TCP, Start: t0, End: t0,
		SrcBytes: 1 << 40, State: flow.StateEstablished,
	}}
	pkt, err := AppendV5(nil, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeV5(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].SrcBytes != 1<<32-1 {
		t.Errorf("SrcBytes = %d, want saturated 2^32-1", out[0].SrcBytes)
	}
}

func TestV5DecodeErrors(t *testing.T) {
	valid, err := AppendV5(nil, wireRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pkt  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:10], ErrTruncated},
		{"wrong version", append([]byte{0, 9}, valid[2:]...), ErrVersion},
		{"length mismatch", valid[:len(valid)-1], ErrCorrupt},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xff), ErrCorrupt},
	} {
		if _, _, err := DecodeV5(tc.pkt, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A record whose Last precedes First is corrupt.
	bad := append([]byte(nil), valid...)
	copy(bad[V5HeaderSize+24:], []byte{0xff, 0xff, 0xff, 0xff}) // First = max
	if _, _, err := DecodeV5(bad, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inverted times: err = %v, want ErrCorrupt", err)
	}
}

func TestV5EncodeErrors(t *testing.T) {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := AppendV5(nil, nil, 0); err == nil {
		t.Error("empty packet encoded")
	}
	many := make([]flow.Record, V5MaxRecords+1)
	for i := range many {
		many[i] = flow.Record{Src: 1, Dst: 2, Proto: flow.TCP, Start: t0, End: t0, State: flow.StateEstablished}
	}
	if _, err := AppendV5(nil, many, 0); err == nil {
		t.Error("oversized packet encoded")
	}
	span := []flow.Record{
		{Src: 1, Dst: 2, Proto: flow.TCP, Start: t0, End: t0, State: flow.StateEstablished},
		{Src: 1, Dst: 2, Proto: flow.TCP, Start: t0.Add(60 * 24 * time.Hour), End: t0.Add(60 * 24 * time.Hour), State: flow.StateEstablished},
	}
	if _, err := AppendV5(nil, span, 0); err == nil {
		t.Error("50-day span encoded past the uint32 ms range")
	}
	pre1970 := []flow.Record{{Src: 1, Dst: 2, Proto: flow.TCP,
		Start: time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC),
		State: flow.StateEstablished}}
	if _, err := AppendV5(nil, pre1970, 0); err == nil {
		t.Error("pre-epoch time encoded into unix_secs")
	}
}

func TestV5DecodeAppendsToDst(t *testing.T) {
	records := wireRecords()
	pkt, err := AppendV5(nil, records, 0)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]flow.Record, 0, 64)
	_, out, err := DecodeV5(pkt, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(records) || cap(out) != 64 {
		t.Errorf("dst reuse broken: len=%d cap=%d", len(out), cap(out))
	}
}
