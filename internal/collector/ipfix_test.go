package collector

import (
	"encoding/binary"
	"testing"
	"time"

	"plotters/internal/flow"
)

// sampleRecords builds a small bidirectional TCP/UDP mix with
// millisecond-resolution timestamps (what the wire formats preserve).
func sampleRecords() []flow.Record {
	base := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
	return []flow.Record{
		{
			Src: flow.MakeIP(128, 2, 0, 1), Dst: flow.MakeIP(66, 35, 250, 150),
			SrcPort: 51234, DstPort: 80, Proto: flow.TCP,
			Start: base, End: base.Add(2500 * time.Millisecond),
			SrcPkts: 5, DstPkts: 4, SrcBytes: 840, DstBytes: 96_123,
			State: flow.StateEstablished,
		},
		{
			Src: flow.MakeIP(128, 2, 7, 9), Dst: flow.MakeIP(87, 4, 11, 2),
			SrcPort: 6346, DstPort: 6346, Proto: flow.UDP,
			Start: base.Add(time.Second), End: base.Add(time.Second),
			SrcPkts: 1, SrcBytes: 60,
			State: flow.StateFailed,
		},
		{
			Src: flow.MakeIP(10, 1, 2, 3), Dst: flow.MakeIP(192, 0, 2, 9),
			SrcPort: 40001, DstPort: 443, Proto: flow.TCP,
			Start: base.Add(250 * time.Millisecond), End: base.Add(9 * time.Second),
			SrcPkts: 100, DstPkts: 200, SrcBytes: 10_000, DstBytes: 5 << 20,
			State: flow.StateFailed,
		},
	}
}

func TestIPFIXRoundTrip(t *testing.T) {
	recs := sampleRecords()
	pkt, err := AppendIPFIX(nil, recs, 7)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTemplateCache()
	hdr, got, stats, err := tc.DecodeIPFIX("10.0.0.1:4739", pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Sequence != 7 {
		t.Errorf("sequence %d, want 7", hdr.Sequence)
	}
	if stats.TemplatesLearned != 1 || stats.Records != len(recs) {
		t.Fatalf("stats = %+v, want 1 template / %d records", stats, len(recs))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want, have := recs[i], got[i]
		if have.Src != want.Src || have.Dst != want.Dst ||
			have.SrcPort != want.SrcPort || have.DstPort != want.DstPort ||
			have.Proto != want.Proto || have.State != want.State {
			t.Errorf("record %d identity mismatch:\n got %+v\nwant %+v", i, have, want)
		}
		if !have.Start.Equal(want.Start) || !have.End.Equal(want.End) {
			t.Errorf("record %d times %v–%v, want %v–%v", i, have.Start, have.End, want.Start, want.End)
		}
		if have.SrcBytes != want.SrcBytes || have.DstBytes != want.DstBytes ||
			have.SrcPkts != want.SrcPkts || have.DstPkts != want.DstPkts {
			t.Errorf("record %d counters mismatch:\n got %+v\nwant %+v", i, have, want)
		}
	}
}

// TestIPFIXTemplateSettles checks the v9-like settle behavior: a data
// set before any template is counted missing, and decodes once the
// template arrives.
func TestIPFIXTemplateSettles(t *testing.T) {
	recs := sampleRecords()[:1]
	pkt, err := AppendIPFIX(nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the template set out of the self-describing message: keep
	// header + data set only.
	be := binary.BigEndian
	tmplLen := int(be.Uint16(pkt[ipfixHeaderSize+2:]))
	dataOnly := append([]byte{}, pkt[:ipfixHeaderSize]...)
	dataOnly = append(dataOnly, pkt[ipfixHeaderSize+tmplLen:]...)
	be.PutUint16(dataOnly[2:], uint16(len(dataOnly)))

	tc := NewTemplateCache()
	_, got, stats, err := tc.DecodeIPFIX("10.0.0.1:4739", dataOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MissingTemplate != 1 || len(got) != 0 {
		t.Fatalf("pre-template decode: stats=%+v records=%d, want 1 missing / 0", stats, len(got))
	}
	// Full message teaches the template; the data-only replay decodes.
	if _, _, _, err := tc.DecodeIPFIX("10.0.0.1:4739", pkt, nil); err != nil {
		t.Fatal(err)
	}
	_, got, stats, err = tc.DecodeIPFIX("10.0.0.1:4739", dataOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || len(got) != 1 {
		t.Fatalf("post-template decode: stats=%+v records=%d, want 1", stats, len(got))
	}
	// Templates are exporter-scoped: another exporter still misses.
	_, _, stats, err = tc.DecodeIPFIX("10.9.9.9:4739", dataOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MissingTemplate != 1 {
		t.Fatalf("foreign exporter decoded with a borrowed template: %+v", stats)
	}
}

// TestIPFIXVarlenAndEnterprise exercises the two IPFIX-only template
// field encodings: a variable-length field and an enterprise-specific
// field, both skipped by length around a mapped port field.
func TestIPFIXVarlenAndEnterprise(t *testing.T) {
	be := binary.BigEndian
	var msg []byte
	hdr := make([]byte, ipfixHeaderSize)
	be.PutUint16(hdr[0:], 10)
	be.PutUint32(hdr[4:], 1194253200)
	msg = append(msg, hdr...)

	// Template 300: varlen field, enterprise field (PEN 9), srcPort.
	tmpl := []byte{
		0x01, 0x2C, 0, 3, // ID 300, 3 fields
		0x00, 0x05, 0xFF, 0xFF, // IE 5, varlen
		0x80, 0x2A, 0x00, 0x04, 0x00, 0x00, 0x00, 0x09, // enterprise IE 42, 4 bytes, PEN 9
		0x00, 0x07, 0x00, 0x02, // sourceTransportPort, 2 bytes
	}
	set := make([]byte, 4)
	be.PutUint16(set[0:], 2)
	be.PutUint16(set[2:], uint16(4+len(tmpl)))
	msg = append(msg, set...)
	msg = append(msg, tmpl...)

	// Data set: two records with different varlen payload sizes.
	data := []byte{
		3, 'a', 'b', 'c', 0xDE, 0xAD, 0xBE, 0xEF, 0xC0, 0x01, // varlen=3, ent, port 0xC001
		0, 0xCA, 0xFE, 0xBA, 0xBE, 0x1F, 0x90, // varlen=0, ent, port 8080
	}
	be.PutUint16(set[0:], 300)
	be.PutUint16(set[2:], uint16(4+len(data)))
	msg = append(msg, set...)
	msg = append(msg, data...)
	be.PutUint16(msg[2:], uint16(len(msg)))

	tc := NewTemplateCache()
	_, got, stats, err := tc.DecodeIPFIX("10.0.0.1:4739", msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TemplatesLearned != 1 || stats.Records != 2 {
		t.Fatalf("stats = %+v, want 1 template / 2 records", stats)
	}
	if got[0].SrcPort != 0xC001 || got[1].SrcPort != 8080 {
		t.Fatalf("ports %d/%d, want 49153/8080", got[0].SrcPort, got[1].SrcPort)
	}
}

func TestIPFIXRejects(t *testing.T) {
	tc := NewTemplateCache()
	if _, _, _, err := tc.DecodeIPFIX("x", make([]byte, 8), nil); err == nil {
		t.Error("short datagram decoded")
	}
	pkt, _ := AppendIPFIX(nil, sampleRecords(), 0)
	bad := append([]byte{}, pkt...)
	binary.BigEndian.PutUint16(bad[2:], uint16(len(bad)+100)) // lies about length
	if _, _, _, err := tc.DecodeIPFIX("x", bad, nil); err == nil {
		t.Error("over-declared message length decoded")
	}
	if _, err := AppendIPFIX(nil, nil, 0); err == nil {
		t.Error("empty message encoded")
	}
}
