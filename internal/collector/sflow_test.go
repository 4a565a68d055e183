package collector

import (
	"encoding/binary"
	"testing"
	"time"

	"plotters/internal/flow"
)

func TestSFlowRoundTrip(t *testing.T) {
	recs := sampleRecords()
	pkt, err := AppendSFlow(nil, recs, 3)
	if err != nil {
		t.Fatal(err)
	}
	arrival := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	hdr, got, stats, err := DecodeSFlow(pkt, arrival, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Sequence != 3 || hdr.Samples != len(recs) {
		t.Errorf("header seq=%d samples=%d, want 3/%d", hdr.Sequence, hdr.Samples, len(recs))
	}
	if stats.Records != len(recs) || stats.SkippedSamples != 0 || stats.SkippedRecords != 0 {
		t.Fatalf("stats = %+v, want %d clean records", stats, len(recs))
	}
	for i := range recs {
		want, have := recs[i], got[i]
		if have.Src != want.Src || have.Dst != want.Dst ||
			have.SrcPort != want.SrcPort || have.DstPort != want.DstPort ||
			have.Proto != want.Proto || have.State != want.State ||
			have.SrcPkts != want.SrcPkts || have.DstPkts != want.DstPkts ||
			have.SrcBytes != want.SrcBytes || have.DstBytes != want.DstBytes {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, have, want)
		}
		if !have.Start.Equal(want.Start) || !have.End.Equal(want.End) {
			t.Errorf("record %d times %v–%v, want %v–%v (arrival clock leaked past the extension?)",
				i, have.Start, have.End, want.Start, want.End)
		}
	}
}

// TestSFlowRawHeaderFallback strips the extension records out of an
// emitted datagram and checks the standard raw-packet-header parse
// still recovers the 5-tuple, stamped with the arrival clock.
func TestSFlowRawHeaderFallback(t *testing.T) {
	recs := sampleRecords()
	pkt, err := AppendSFlow(nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkt = stripSFlowExtensions(t, pkt)

	arrival := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	_, got, stats, err := DecodeSFlow(pkt, arrival, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(recs) {
		t.Fatalf("stats = %+v, want %d records", stats, len(recs))
	}
	for i := range recs {
		want, have := recs[i], got[i]
		if have.Src != want.Src || have.Dst != want.Dst ||
			have.SrcPort != want.SrcPort || have.DstPort != want.DstPort ||
			have.Proto != want.Proto {
			t.Errorf("record %d 5-tuple mismatch:\n got %+v\nwant %+v", i, have, want)
		}
		if !have.Start.Equal(arrival) || !have.End.Equal(arrival) {
			t.Errorf("record %d not stamped with the arrival clock: %v–%v", i, have.Start, have.End)
		}
		if have.SrcPkts != 1 {
			t.Errorf("record %d: raw-header reconstruction counts %d packets, want 1", i, have.SrcPkts)
		}
		// TCP state survives via the synthesized header's flags; UDP
		// reconstructions default to established (no reply evidence in a
		// single sampled frame).
		if want.Proto == flow.TCP && have.State != want.State {
			t.Errorf("record %d TCP state %v, want %v", i, have.State, want.State)
		}
	}
}

// stripSFlowExtensions walks an AppendSFlow datagram and rewrites each
// flow sample without its extension record.
func stripSFlowExtensions(t *testing.T, pkt []byte) []byte {
	t.Helper()
	be := binary.BigEndian
	out := append([]byte{}, pkt[:28]...) // header, agent, seq, uptime, nsamples
	off := 28
	for off < len(pkt) {
		sampleLen := int(be.Uint32(pkt[off+4:]))
		body := pkt[off+8 : off+8+sampleLen]
		off += 8 + sampleLen

		// Walk the sample's records, keeping all but the extension.
		var kept []byte
		n := 0
		rb := body[32:]
		for len(rb) >= 8 {
			format := be.Uint32(rb)
			recLen := int(be.Uint32(rb[4:]))
			whole := rb[:8+recLen]
			rb = rb[8+recLen:]
			if format == sflowExtEnterprise<<12|1 {
				continue
			}
			kept = append(kept, whole...)
			n++
		}
		newBody := append(append([]byte{}, body[:32]...), kept...)
		be.PutUint32(newBody[28:], uint32(n))

		var sh [8]byte
		be.PutUint32(sh[0:], 1)
		be.PutUint32(sh[4:], uint32(len(newBody)))
		out = append(out, sh[:]...)
		out = append(out, newBody...)
	}
	return out
}

func TestSFlowSkipsForeignSamples(t *testing.T) {
	recs := sampleRecords()[:1]
	pkt, err := AppendSFlow(nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Append a counter sample (type 2) and bump the sample count.
	be := binary.BigEndian
	counter := make([]byte, 8+12)
	be.PutUint32(counter[0:], 2)
	be.PutUint32(counter[4:], 12)
	pkt = append(pkt, counter...)
	be.PutUint32(pkt[24:], 2)

	_, got, stats, err := DecodeSFlow(pkt, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.SkippedSamples != 1 || len(got) != 1 {
		t.Fatalf("stats = %+v / %d records, want 1 record + 1 skipped sample", stats, len(got))
	}
}

func TestSFlowRejects(t *testing.T) {
	if _, _, _, err := DecodeSFlow([]byte{0, 0, 0, 4}, time.Now(), nil); err == nil {
		t.Error("version 4 datagram decoded")
	}
	if _, _, _, err := DecodeSFlow([]byte{0, 0}, time.Now(), nil); err == nil {
		t.Error("2-byte datagram decoded")
	}
	pkt, _ := AppendSFlow(nil, sampleRecords(), 0)
	if _, _, _, err := DecodeSFlow(pkt[:40], time.Now(), nil); err == nil {
		t.Error("truncated datagram decoded without error")
	}
	if _, err := AppendSFlow(nil, nil, 0); err == nil {
		t.Error("empty datagram encoded")
	}
}
