package flow

import (
	"testing"
	"testing/quick"
	"time"
)

func TestMakeIPAndString(t *testing.T) {
	ip := MakeIP(128, 2, 13, 7)
	if got := ip.String(); got != "128.2.13.7" {
		t.Errorf("String = %q", got)
	}
	a, b, c, d := ip.Octets()
	if a != 128 || b != 2 || c != 13 || d != 7 {
		t.Errorf("Octets = %d.%d.%d.%d", a, b, c, d)
	}
}

func TestParseIP(t *testing.T) {
	tests := []struct {
		in      string
		want    IP
		wantErr bool
	}{
		{"128.2.0.1", MakeIP(128, 2, 0, 1), false},
		{"0.0.0.0", 0, false},
		{"255.255.255.255", IP(0xFFFFFFFF), false},
		{"1.2.3", 0, true},
		{"1.2.3.4.5", 0, true},
		{"1.2.3.256", 0, true},
		{"a.b.c.d", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseIP(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseIP(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseIP(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseIPRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IP(raw)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSubnet(t *testing.T) {
	sn, err := ParseSubnet("128.2.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Contains(MakeIP(128, 2, 200, 3)) {
		t.Error("subnet should contain 128.2.200.3")
	}
	if sn.Contains(MakeIP(128, 3, 0, 1)) {
		t.Error("subnet should not contain 128.3.0.1")
	}
	if sn.String() != "128.2.0.0/16" {
		t.Errorf("String = %q", sn.String())
	}
	if sn.Hosts() != 65536 {
		t.Errorf("Hosts = %d", sn.Hosts())
	}
	if got := sn.Addr(257); got != MakeIP(128, 2, 1, 1) {
		t.Errorf("Addr(257) = %v", got)
	}
	// Base gets canonicalized.
	sn2, err := ParseSubnet("128.2.9.9/16")
	if err != nil {
		t.Fatal(err)
	}
	if sn2.Base != MakeIP(128, 2, 0, 0) {
		t.Errorf("base not canonicalized: %v", sn2.Base)
	}
	// /0 contains everything.
	all, err := ParseSubnet("0.0.0.0/0")
	if err != nil {
		t.Fatal(err)
	}
	if !all.Contains(MakeIP(9, 9, 9, 9)) {
		t.Error("/0 should contain everything")
	}
	// /32 contains exactly one address.
	one, err := ParseSubnet("1.2.3.4/32")
	if err != nil {
		t.Fatal(err)
	}
	if !one.Contains(MakeIP(1, 2, 3, 4)) || one.Contains(MakeIP(1, 2, 3, 5)) {
		t.Error("/32 membership wrong")
	}
}

func TestParseSubnetErrors(t *testing.T) {
	for _, in := range []string{"128.2.0.0", "128.2.0.0/33", "128.2.0.0/-1", "x/16", "1.2.3.4/z",
		"128.2.0.0/-0", "128.2.0.0/+8", "128.2.0.0/ 8", "128.2.0.0/", "128.2.0.0/008"} {
		if _, err := ParseSubnet(in); err == nil {
			t.Errorf("ParseSubnet(%q): expected error", in)
		}
	}
}

func TestMustParseSubnetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseSubnet should panic on bad input")
		}
	}()
	MustParseSubnet("bogus")
}

func TestProtoString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" || ICMP.String() != "icmp" {
		t.Error("proto names wrong")
	}
	if Proto(99).String() == "" {
		t.Error("unknown proto should render")
	}
	for _, s := range []string{"tcp", "TCP", "6"} {
		if p, err := ParseProto(s); err != nil || p != TCP {
			t.Errorf("ParseProto(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParseProto("bogus"); err == nil {
		t.Error("ParseProto(bogus): expected error")
	}
}

func TestConnState(t *testing.T) {
	if StateEstablished.String() != "established" || StateFailed.String() != "failed" {
		t.Error("state names wrong")
	}
	if ConnState(9).String() == "" {
		t.Error("unknown state should render")
	}
}

func baseTime() time.Time {
	return time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
}

func mkRecord(src, dst IP, start time.Time, srcBytes uint64, state ConnState) Record {
	return Record{
		Src: src, Dst: dst, SrcPort: 40000, DstPort: 80, Proto: TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 3, DstPkts: 3, SrcBytes: srcBytes, DstBytes: 100,
		State: state,
	}
}

func TestRecordValidate(t *testing.T) {
	good := mkRecord(1, 2, baseTime(), 10, StateEstablished)
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := good
	bad.End = bad.Start.Add(-time.Second)
	if err := bad.Validate(); err == nil {
		t.Error("end-before-start accepted")
	}
	bad = good
	bad.Proto = 99
	if err := bad.Validate(); err == nil {
		t.Error("bad proto accepted")
	}
	bad = good
	bad.State = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad state accepted")
	}
	bad = good
	bad.Payload = make([]byte, MaxPayload+1)
	if err := bad.Validate(); err == nil {
		t.Error("oversized payload accepted")
	}
	if good.Failed() {
		t.Error("established record reported failed")
	}
	if good.Duration() != time.Second {
		t.Errorf("Duration = %v", good.Duration())
	}
	if good.String() == "" {
		t.Error("String empty")
	}
}

func TestWindow(t *testing.T) {
	w := Window{From: baseTime(), To: baseTime().Add(6 * time.Hour)}
	if !w.Contains(baseTime()) {
		t.Error("window should contain its start")
	}
	if w.Contains(baseTime().Add(6 * time.Hour)) {
		t.Error("window should exclude its end")
	}
	if w.Contains(baseTime().Add(-time.Second)) {
		t.Error("window should exclude times before start")
	}
	if w.Duration() != 6*time.Hour {
		t.Errorf("Duration = %v", w.Duration())
	}
	records := []Record{
		mkRecord(1, 2, baseTime().Add(-time.Minute), 5, StateEstablished),
		mkRecord(1, 2, baseTime().Add(time.Minute), 5, StateEstablished),
		mkRecord(1, 2, baseTime().Add(7*time.Hour), 5, StateEstablished),
	}
	got := w.Filter(records)
	if len(got) != 1 || !got[0].Start.Equal(baseTime().Add(time.Minute)) {
		t.Errorf("Filter = %v", got)
	}
}

func TestSortByStart(t *testing.T) {
	t0 := baseTime()
	records := []Record{
		mkRecord(3, 2, t0.Add(2*time.Second), 5, StateEstablished),
		mkRecord(1, 2, t0, 5, StateEstablished),
		mkRecord(2, 2, t0.Add(time.Second), 5, StateEstablished),
	}
	SortByStart(records)
	if records[0].Src != 1 || records[1].Src != 2 || records[2].Src != 3 {
		t.Errorf("sort order wrong: %v", records)
	}
}

func TestExtractFeaturesBasic(t *testing.T) {
	t0 := baseTime()
	host := MakeIP(128, 2, 0, 1)
	records := []Record{
		mkRecord(host, MakeIP(8, 8, 8, 8), t0, 100, StateEstablished),
		mkRecord(host, MakeIP(8, 8, 8, 8), t0.Add(10*time.Second), 200, StateFailed),
		mkRecord(host, MakeIP(9, 9, 9, 9), t0.Add(20*time.Second), 300, StateEstablished),
		// A flow initiated by someone else must not count for host.
		mkRecord(MakeIP(7, 7, 7, 7), host, t0.Add(30*time.Second), 999, StateEstablished),
	}
	feats := ExtractFeatures(records, FeatureOptions{})
	f := feats[host]
	if f == nil {
		t.Fatal("host missing from features")
	}
	if f.Flows != 3 || f.SuccessfulFlows() != 2 || f.FailedFlows != 1 {
		t.Errorf("counts = %d/%d/%d", f.Flows, f.SuccessfulFlows(), f.FailedFlows)
	}
	if f.BytesUploaded != 600 {
		t.Errorf("BytesUploaded = %d", f.BytesUploaded)
	}
	if got := f.AvgBytesPerFlow(); got != 200 {
		t.Errorf("AvgBytesPerFlow = %v", got)
	}
	if got := f.FailedRate(); got != 1.0/3.0 {
		t.Errorf("FailedRate = %v", got)
	}
	if f.Peers != 2 {
		t.Errorf("Peers = %d", f.Peers)
	}
	// Both peers contacted within the first hour: no new peers.
	if f.NewPeers != 0 || f.NewPeerFraction() != 0 {
		t.Errorf("NewPeers = %d, fraction %v", f.NewPeers, f.NewPeerFraction())
	}
	// One interstitial: the two flows to 8.8.8.8, 10 s apart.
	if len(f.Interstitials) != 1 || f.Interstitials[0] != 10 {
		t.Errorf("Interstitials = %v", f.Interstitials)
	}
	if !f.FirstSeen.Equal(t0) {
		t.Errorf("FirstSeen = %v", f.FirstSeen)
	}
	// The other initiator appears too.
	if feats[MakeIP(7, 7, 7, 7)] == nil {
		t.Error("second initiator missing")
	}
}

func TestExtractFeaturesNewPeerGrace(t *testing.T) {
	t0 := baseTime()
	host := IP(1)
	records := []Record{
		mkRecord(host, IP(100), t0, 10, StateEstablished),
		mkRecord(host, IP(101), t0.Add(30*time.Minute), 10, StateEstablished),
		// After the 1-hour grace: new peers.
		mkRecord(host, IP(102), t0.Add(90*time.Minute), 10, StateEstablished),
		mkRecord(host, IP(103), t0.Add(2*time.Hour), 10, StateEstablished),
		// Re-contacting a known peer after the grace is not new.
		mkRecord(host, IP(100), t0.Add(3*time.Hour), 10, StateEstablished),
	}
	feats := ExtractFeatures(records, FeatureOptions{})
	f := feats[host]
	if f.Peers != 4 || f.NewPeers != 2 {
		t.Errorf("Peers = %d NewPeers = %d, want 4 and 2", f.Peers, f.NewPeers)
	}
	if got := f.NewPeerFraction(); got != 0.5 {
		t.Errorf("NewPeerFraction = %v", got)
	}

	// A shorter grace flips the 30-minute contact to new.
	feats = ExtractFeatures(records, FeatureOptions{NewPeerGrace: 10 * time.Minute})
	if f := feats[host]; f.NewPeers != 3 {
		t.Errorf("NewPeers with 10m grace = %d, want 3", f.NewPeers)
	}
}

func TestExtractFeaturesHostFilter(t *testing.T) {
	t0 := baseTime()
	internal := MustParseSubnet("128.2.0.0/16")
	records := []Record{
		mkRecord(MakeIP(128, 2, 0, 1), IP(100), t0, 10, StateEstablished),
		mkRecord(MakeIP(10, 0, 0, 1), IP(100), t0, 10, StateEstablished),
	}
	feats := ExtractFeatures(records, FeatureOptions{Hosts: internal.Contains})
	if len(feats) != 1 {
		t.Fatalf("features for %d hosts, want 1", len(feats))
	}
	if feats[MakeIP(128, 2, 0, 1)] == nil {
		t.Error("internal host missing")
	}
}

func TestExtractFeaturesUnsortedInput(t *testing.T) {
	t0 := baseTime()
	host := IP(1)
	// Deliberately out of order: the extractor must sort by start time so
	// interstitials and first-contact logic see time order.
	records := []Record{
		mkRecord(host, IP(100), t0.Add(40*time.Second), 10, StateEstablished),
		mkRecord(host, IP(100), t0, 10, StateEstablished),
		mkRecord(host, IP(100), t0.Add(10*time.Second), 10, StateEstablished),
	}
	feats := ExtractFeatures(records, FeatureOptions{})
	f := feats[host]
	if len(f.Interstitials) != 2 || f.Interstitials[0] != 10 || f.Interstitials[1] != 30 {
		t.Errorf("Interstitials = %v, want [10 30]", f.Interstitials)
	}
	// The input slice must not be reordered.
	if !records[0].Start.Equal(t0.Add(40 * time.Second)) {
		t.Error("input slice was mutated")
	}
}

func TestExtractFeaturesEmpty(t *testing.T) {
	feats := ExtractFeatures(nil, FeatureOptions{})
	if len(feats) != 0 {
		t.Errorf("features from no records: %v", feats)
	}
}

func TestHostFeaturesZeroDivision(t *testing.T) {
	var f HostFeatures
	if f.AvgBytesPerFlow() != 0 || f.FailedRate() != 0 || f.NewPeerFraction() != 0 {
		t.Error("zero-flow host features should be 0")
	}
}

func TestFeatureValuesAndSortedHosts(t *testing.T) {
	feats := map[IP]*HostFeatures{
		IP(3): {Host: 3, Flows: 1, BytesUploaded: 30},
		IP(1): {Host: 1, Flows: 1, BytesUploaded: 10},
		IP(2): {Host: 2, Flows: 1, BytesUploaded: 20},
	}
	hosts := SortedHosts(feats)
	if hosts[0] != 1 || hosts[1] != 2 || hosts[2] != 3 {
		t.Errorf("SortedHosts = %v", hosts)
	}
}
