package collector

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
)

// v9Packet assembles a NetFlow v9 packet from pre-built FlowSets.
func v9Packet(sysUptimeMS, unixSecs, seq, sourceID uint32, flowSets ...[]byte) []byte {
	pkt := make([]byte, v9HeaderSize)
	be := binary.BigEndian
	be.PutUint16(pkt[0:], 9)
	be.PutUint32(pkt[4:], sysUptimeMS)
	be.PutUint32(pkt[8:], unixSecs)
	be.PutUint32(pkt[12:], seq)
	be.PutUint32(pkt[16:], sourceID)
	count := 0
	for _, fs := range flowSets {
		pkt = append(pkt, fs...)
		count++
	}
	be.PutUint16(pkt[2:], uint16(count))
	return pkt
}

// flowSet wraps a body with the (setID, length) FlowSet header.
func flowSet(setID uint16, body []byte) []byte {
	fs := make([]byte, 4+len(body))
	binary.BigEndian.PutUint16(fs[0:], setID)
	binary.BigEndian.PutUint16(fs[2:], uint16(len(fs)))
	copy(fs[4:], body)
	return fs
}

// templateBody builds one template definition: ID plus (type, length)
// field pairs.
func templateBody(id uint16, fields ...[2]uint16) []byte {
	body := make([]byte, 4+4*len(fields))
	be := binary.BigEndian
	be.PutUint16(body[0:], id)
	be.PutUint16(body[2:], uint16(len(fields)))
	for i, f := range fields {
		be.PutUint16(body[4+i*4:], f[0])
		be.PutUint16(body[6+i*4:], f[1])
	}
	return body
}

// fullTemplate carries every field the decoder maps, plus one unknown
// field (type 10, input interface) that must be skipped by length.
func fullTemplate(id uint16) []byte {
	return templateBody(id,
		[2]uint16{fieldSrcAddr, 4},
		[2]uint16{fieldDstAddr, 4},
		[2]uint16{fieldSrcPort, 2},
		[2]uint16{fieldDstPort, 2},
		[2]uint16{10, 2}, // INPUT_SNMP: unknown to the decoder
		[2]uint16{fieldProtocol, 1},
		[2]uint16{fieldTCPFlags, 1},
		[2]uint16{fieldInPkts, 4},
		[2]uint16{fieldInBytes, 4},
		[2]uint16{fieldFirstMS, 4},
		[2]uint16{fieldLastMS, 4},
	)
}

// fullRecord encodes one data record against fullTemplate's layout.
func fullRecord(src, dst flow.IP, srcPort, dstPort uint16, proto flow.Proto, flags byte, pkts, bytes, firstMS, lastMS uint32) []byte {
	b := make([]byte, 0, 31)
	be := binary.BigEndian
	b = be.AppendUint32(b, uint32(src))
	b = be.AppendUint32(b, uint32(dst))
	b = be.AppendUint16(b, srcPort)
	b = be.AppendUint16(b, dstPort)
	b = be.AppendUint16(b, 7) // unknown input interface
	b = append(b, byte(proto), flags)
	b = be.AppendUint32(b, pkts)
	b = be.AppendUint32(b, bytes)
	b = be.AppendUint32(b, firstMS)
	b = be.AppendUint32(b, lastMS)
	return b
}

func TestV9TemplateAndData(t *testing.T) {
	tc := NewTemplateCache()
	const unixSecs = 1194253200 // 2007-11-05 09:00:00 UTC
	boot := time.Unix(unixSecs, 0).UTC().Add(-60 * time.Second)
	rec1 := fullRecord(flow.MakeIP(128, 2, 0, 1), flow.MakeIP(66, 35, 250, 150), 51234, 80, flow.TCP, tcpSYN|tcpACK, 5, 840, 1000, 3500)
	rec2 := fullRecord(flow.MakeIP(128, 2, 7, 9), flow.MakeIP(87, 4, 11, 2), 6346, 6346, flow.UDP, 0, 1, 60, 2000, 2000)
	pkt := v9Packet(60_000, unixSecs, 1, 42,
		flowSet(0, fullTemplate(300)),
		flowSet(300, append(append([]byte{}, rec1...), rec2...)),
	)

	hdr, recs, stats, err := tc.DecodeV9("10.0.0.1:2055", pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Sequence != 1 || hdr.SourceID != 42 {
		t.Errorf("header seq=%d source=%d, want 1/42", hdr.Sequence, hdr.SourceID)
	}
	if stats.TemplatesLearned != 1 || stats.Records != 2 || stats.MissingTemplate != 0 {
		t.Fatalf("stats = %+v, want 1 template, 2 records", stats)
	}
	if tc.Templates() != 1 {
		t.Errorf("cache holds %d templates, want 1", tc.Templates())
	}
	want := flow.Record{
		Src: flow.MakeIP(128, 2, 0, 1), Dst: flow.MakeIP(66, 35, 250, 150),
		SrcPort: 51234, DstPort: 80, Proto: flow.TCP,
		Start: boot.Add(1 * time.Second), End: boot.Add(3500 * time.Millisecond),
		SrcPkts: 5, SrcBytes: 840, State: flow.StateEstablished,
	}
	if !recs[0].Start.Equal(want.Start) || !recs[0].End.Equal(want.End) {
		t.Errorf("record 0 times %v–%v, want %v–%v", recs[0].Start, recs[0].End, want.Start, want.End)
	}
	recs[0].Start, recs[0].End = want.Start, want.End // Equal vs DeepEqual on time.Time
	if !reflect.DeepEqual(recs[0], want) {
		t.Errorf("record 0 = %+v, want %+v", recs[0], want)
	}
	// UDP with zeroed flags in a flags-bearing template: established.
	if recs[1].State != flow.StateEstablished || recs[1].Proto != flow.UDP {
		t.Errorf("record 1 state=%v proto=%v", recs[1].State, recs[1].Proto)
	}
}

func TestV9DataBeforeTemplate(t *testing.T) {
	tc := NewTemplateCache()
	rec := fullRecord(1, 2, 3, 4, flow.TCP, tcpACK, 1, 40, 0, 0)
	data := v9Packet(1000, 1194253200, 1, 7, flowSet(300, rec))

	_, recs, stats, err := tc.DecodeV9("exp", data, nil)
	if err != nil || len(recs) != 0 || stats.MissingTemplate != 1 {
		t.Fatalf("pre-template decode: recs=%d stats=%+v err=%v, want 0 records and 1 missing-template", len(recs), stats, err)
	}

	tmpl := v9Packet(1000, 1194253200, 2, 7, flowSet(0, fullTemplate(300)))
	if _, _, _, err := tc.DecodeV9("exp", tmpl, nil); err != nil {
		t.Fatal(err)
	}
	_, recs, stats, err = tc.DecodeV9("exp", data, nil)
	if err != nil || len(recs) != 1 || stats.MissingTemplate != 0 {
		t.Fatalf("post-template decode: recs=%d stats=%+v err=%v, want 1 record", len(recs), stats, err)
	}
}

func TestV9TemplatesScopedPerExporterAndSource(t *testing.T) {
	tc := NewTemplateCache()
	tmpl := v9Packet(1000, 1194253200, 1, 7, flowSet(0, fullTemplate(300)))
	if _, _, _, err := tc.DecodeV9("exporterA", tmpl, nil); err != nil {
		t.Fatal(err)
	}
	data := v9Packet(1000, 1194253200, 2, 7, flowSet(300, fullRecord(1, 2, 3, 4, flow.TCP, tcpACK, 1, 40, 0, 0)))
	if _, recs, stats, _ := tc.DecodeV9("exporterB", data, nil); len(recs) != 0 || stats.MissingTemplate != 1 {
		t.Errorf("exporter B used exporter A's template: recs=%d stats=%+v", len(recs), stats)
	}
	// Same exporter, different source ID: also scoped out.
	otherSource := v9Packet(1000, 1194253200, 2, 8, flowSet(300, fullRecord(1, 2, 3, 4, flow.TCP, tcpACK, 1, 40, 0, 0)))
	if _, recs, stats, _ := tc.DecodeV9("exporterA", otherSource, nil); len(recs) != 0 || stats.MissingTemplate != 1 {
		t.Errorf("source 8 used source 7's template: recs=%d stats=%+v", len(recs), stats)
	}
}

func TestV9OptionsAndReservedSetsSkipped(t *testing.T) {
	tc := NewTemplateCache()
	pkt := v9Packet(1000, 1194253200, 1, 7,
		flowSet(1, []byte{0, 0, 0, 0}), // options template
		flowSet(128, []byte{1, 2, 3}),  // reserved set ID
	)
	_, recs, stats, err := tc.DecodeV9("exp", pkt, nil)
	if err != nil || len(recs) != 0 || stats.SkippedSets != 2 {
		t.Errorf("recs=%d stats=%+v err=%v, want 2 skipped sets", len(recs), stats, err)
	}
}

func TestV9StructuralErrors(t *testing.T) {
	tc := NewTemplateCache()
	for _, tcase := range []struct {
		name string
		pkt  []byte
		want error
	}{
		{"short header", make([]byte, 10), ErrTruncated},
		{"v5 packet", func() []byte { p, _ := AppendV5(nil, wireRecords(), 0); return p }(), ErrVersion},
		{"flowset overruns packet", v9Packet(0, 1, 1, 7, []byte{1, 44, 0, 200, 0, 0}), ErrCorrupt},
		{"flowset length under 4", v9Packet(0, 1, 1, 7, []byte{1, 44, 0, 2, 0, 0}), ErrCorrupt},
		{"reserved template ID", v9Packet(0, 1, 1, 7, flowSet(0, templateBody(100, [2]uint16{fieldSrcAddr, 4}))), ErrCorrupt},
		{"zero-length field", v9Packet(0, 1, 1, 7, flowSet(0, templateBody(300, [2]uint16{fieldSrcAddr, 0}))), ErrCorrupt},
		{"truncated template", v9Packet(0, 1, 1, 7, flowSet(0, []byte{1, 45, 0, 9, 0, 8})), ErrCorrupt},
	} {
		if _, _, _, err := tc.DecodeV9("exp", tcase.pkt, nil); !errors.Is(err, tcase.want) {
			t.Errorf("%s: err = %v, want %v", tcase.name, err, tcase.want)
		}
	}
}

func TestV9ErrorKeepsEarlierRecords(t *testing.T) {
	tc := NewTemplateCache()
	tmpl := v9Packet(1000, 1194253200, 1, 7, flowSet(0, fullTemplate(300)))
	if _, _, _, err := tc.DecodeV9("exp", tmpl, nil); err != nil {
		t.Fatal(err)
	}
	// Good data FlowSet followed by a FlowSet that overruns the packet.
	pkt := v9Packet(1000, 1194253200, 2, 7,
		flowSet(300, fullRecord(1, 2, 3, 4, flow.TCP, tcpACK, 1, 40, 0, 0)),
		[]byte{1, 44, 0, 200, 0, 0},
	)
	_, recs, _, err := tc.DecodeV9("exp", pkt, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(recs) != 1 {
		t.Errorf("records decoded before the error were dropped: got %d, want 1", len(recs))
	}
}

func TestV9StateWithoutFlags(t *testing.T) {
	// Template with OUT_PKTS but no TCP_FLAGS: replies decide the state.
	tc := NewTemplateCache()
	tmpl := templateBody(301,
		[2]uint16{fieldSrcAddr, 4},
		[2]uint16{fieldDstAddr, 4},
		[2]uint16{fieldProtocol, 1},
		[2]uint16{fieldOutPkts, 4},
	)
	if _, _, _, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 1, 7, flowSet(0, tmpl)), nil); err != nil {
		t.Fatal(err)
	}
	rec := func(outPkts uint32) []byte {
		b := make([]byte, 13)
		binary.BigEndian.PutUint32(b[0:], 1)
		binary.BigEndian.PutUint32(b[4:], 2)
		b[8] = byte(flow.TCP)
		binary.BigEndian.PutUint32(b[9:], outPkts)
		return b
	}
	_, recs, _, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 2, 7, flowSet(301, append(rec(3), rec(0)...))), nil)
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if recs[0].State != flow.StateEstablished || recs[0].DstPkts != 3 {
		t.Errorf("answered flow = %v (DstPkts %d), want established", recs[0].State, recs[0].DstPkts)
	}
	if recs[1].State != flow.StateFailed {
		t.Errorf("unanswered flow = %v, want failed", recs[1].State)
	}

	// Template with neither flags nor reply counters: conservative
	// established, timestamps default to the export time.
	tmpl2 := templateBody(302, [2]uint16{fieldSrcAddr, 4}, [2]uint16{fieldDstAddr, 4})
	if _, _, _, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 3, 7, flowSet(0, tmpl2)), nil); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 8)
	binary.BigEndian.PutUint32(body[0:], 9)
	binary.BigEndian.PutUint32(body[4:], 10)
	hdr, recs, _, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 4, 7, flowSet(302, body)), nil)
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if recs[0].State != flow.StateEstablished {
		t.Errorf("bare flow = %v, want established", recs[0].State)
	}
	if !recs[0].Start.Equal(hdr.Exported) || !recs[0].End.Equal(hdr.Exported) {
		t.Errorf("bare flow times %v–%v, want export time %v", recs[0].Start, recs[0].End, hdr.Exported)
	}
}

func TestV9DataPaddingIgnored(t *testing.T) {
	tc := NewTemplateCache()
	tmpl := v9Packet(0, 1194253200, 1, 7, flowSet(0, fullTemplate(300)))
	if _, _, _, err := tc.DecodeV9("exp", tmpl, nil); err != nil {
		t.Fatal(err)
	}
	body := append(fullRecord(1, 2, 3, 4, flow.TCP, tcpACK, 1, 40, 0, 0), 0, 0, 0) // 3 bytes of padding
	_, recs, stats, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 2, 7, flowSet(300, body)), nil)
	if err != nil || len(recs) != 1 || stats.Records != 1 {
		t.Errorf("recs=%d stats=%+v err=%v, want exactly 1 record", len(recs), stats, err)
	}
}

func TestV9WideFieldSkipped(t *testing.T) {
	// A 16-byte field (e.g. an IPv6 address under a mapped type) is
	// wider than uintField reads: skipped, record still decodes.
	tc := NewTemplateCache()
	tmpl := templateBody(303,
		[2]uint16{fieldSrcAddr, 4},
		[2]uint16{27, 16}, // IPV6_SRC_ADDR
		[2]uint16{fieldDstAddr, 4},
	)
	if _, _, _, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 1, 7, flowSet(0, tmpl)), nil); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 24)
	binary.BigEndian.PutUint32(body[0:], 11)
	binary.BigEndian.PutUint32(body[20:], 12)
	_, recs, _, err := tc.DecodeV9("exp", v9Packet(0, 1194253200, 2, 7, flowSet(303, body)), nil)
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if recs[0].Src != 11 || recs[0].Dst != 12 {
		t.Errorf("record = %+v, want Src=11 Dst=12", recs[0])
	}
}

// TestTemplateDialectsDifferOnlyInClock feeds the same template and data
// sets — carrying both clocks, uptime-relative 21/22 and absolute
// 152/153 — through the v9 and the IPFIX dialect of the one walker.
// Each must read its own clock and ignore the other's, and the records
// must agree on everything else.
func TestTemplateDialectsDifferOnlyInClock(t *testing.T) {
	const unixSecs = 1194253200 // 2007-11-05 09:00:00 UTC
	exported := time.Unix(unixSecs, 0).UTC()
	boot := exported.Add(-60 * time.Second)
	absStart := exported.Add(-5 * time.Hour)
	tmpl := templateBody(300,
		[2]uint16{fieldSrcAddr, 4}, [2]uint16{fieldDstAddr, 4},
		[2]uint16{fieldSrcPort, 2}, [2]uint16{fieldDstPort, 2},
		[2]uint16{fieldProtocol, 1}, [2]uint16{fieldInPkts, 4}, [2]uint16{fieldInBytes, 4},
		[2]uint16{fieldOutPkts, 4}, [2]uint16{fieldOutBytes, 4},
		[2]uint16{fieldFirstMS, 4}, [2]uint16{fieldLastMS, 4},
		[2]uint16{fieldStartMilli, 8}, [2]uint16{fieldEndMilli, 8},
	)
	be := binary.BigEndian
	var data []byte
	for i, outPkts := range []uint32{3, 0} {
		data = be.AppendUint32(data, uint32(flow.MakeIP(128, 2, 0, byte(i+1))))
		data = be.AppendUint32(data, uint32(flow.MakeIP(66, 35, 250, 150)))
		data = be.AppendUint16(data, uint16(40000+i))
		data = be.AppendUint16(data, 80)
		data = append(data, byte(flow.TCP))
		data = be.AppendUint32(data, 5)
		data = be.AppendUint32(data, 840)
		data = be.AppendUint32(data, outPkts)
		data = be.AppendUint32(data, outPkts*500)
		data = be.AppendUint32(data, uint32(1000+i)) // 21/22: ms since boot
		data = be.AppendUint32(data, uint32(3500+i))
		data = be.AppendUint64(data, uint64(absStart.UnixMilli()+int64(i)))
		data = be.AppendUint64(data, uint64(absStart.UnixMilli()+int64(i)+250))
	}

	v9 := v9Packet(60_000, unixSecs, 1, 42, flowSet(0, tmpl), flowSet(300, data))
	ipfix := make([]byte, ipfixHeaderSize)
	be.PutUint16(ipfix[0:], 10)
	be.PutUint32(ipfix[4:], unixSecs)
	be.PutUint32(ipfix[12:], 42)
	ipfix = append(append(ipfix, flowSet(2, tmpl)...), flowSet(300, data)...)
	be.PutUint16(ipfix[2:], uint16(len(ipfix)))

	_, fromV9, v9Stats, err := NewTemplateCache().DecodeV9("exp", v9, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, fromIPFIX, ipfixStats, err := NewTemplateCache().DecodeIPFIX("exp", ipfix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v9Stats != ipfixStats || len(fromV9) != 2 || len(fromIPFIX) != 2 {
		t.Fatalf("stats differ or short: v9 %+v (%d records), IPFIX %+v (%d records)", v9Stats, len(fromV9), ipfixStats, len(fromIPFIX))
	}
	for i := range fromV9 {
		a, b := fromV9[i], fromIPFIX[i]
		ms := time.Duration(i) * time.Millisecond
		if want := boot.Add(time.Second + ms); !a.Start.Equal(want) || !a.End.Equal(want.Add(2500*time.Millisecond)) {
			t.Errorf("v9 record %d spans %v–%v, want boot-relative %v +2.5s", i, a.Start, a.End, want)
		}
		if want := absStart.Add(ms); !b.Start.Equal(want) || !b.End.Equal(want.Add(250*time.Millisecond)) {
			t.Errorf("IPFIX record %d spans %v–%v, want absolute %v +250ms", i, b.Start, b.End, want)
		}
		a.Start, a.End, b.Start, b.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("record %d differs beyond its clock:\n v9    %+v\n IPFIX %+v", i, a, b)
		}
	}
	if fromV9[0].State != flow.StateEstablished || fromV9[1].State != flow.StateFailed {
		t.Errorf("states %v/%v, want established/failed from OUT_PKTS", fromV9[0].State, fromV9[1].State)
	}

	// The set id that announces templates in one dialect is a skipped
	// reserved id in the other: nothing is learned, the data set misses.
	_, recs, stats, err := NewTemplateCache().DecodeV9("exp", v9Packet(60_000, unixSecs, 1, 42, flowSet(2, tmpl), flowSet(300, data)), nil)
	if err != nil || len(recs) != 0 || stats.TemplatesLearned != 0 || stats.SkippedSets != 1 || stats.MissingTemplate != 1 {
		t.Errorf("v9 with an IPFIX template set id: %d records, stats %+v, err %v", len(recs), stats, err)
	}
}
