package core

import (
	"math/rand"
	"testing"
	"time"

	"plotters/internal/flow"
)

func TestDefaultPortGrouper(t *testing.T) {
	tests := []struct {
		port uint16
		want string
	}{
		{80, "web"}, {443, "web"}, {993, "mail"}, {53, "infra"},
		{6346, "gnutella"}, {4662, "emule"}, {6881, "bittorrent"},
		{8, "other"}, {5555, "port-5555"},
	}
	for _, tt := range tests {
		r := &flow.Record{DstPort: tt.port}
		if got := defaultPortGrouper(r); got != tt.want {
			t.Errorf("port %d -> %q, want %q", tt.port, got, tt.want)
		}
	}
}

// TestFindPlottersByApplication plants a bot's control channel on the
// same host as a heavy file-sharer: blended, the host's volume is
// Trader-like; split by port group, the bot's group must be flagged.
func TestFindPlottersByApplication(t *testing.T) {
	var records []flow.Record
	at := t0()
	rng := rand.New(rand.NewSource(3))
	infected := flow.IP(1)

	// Bot control traffic on TCP port 8: tiny periodic flows to a fixed
	// peer set, half failing.
	botPeers := []flow.IP{0x08000001, 0x08000002, 0x08000003}
	tick := at
	for i := 0; i < 400; i++ {
		state := flow.StateEstablished
		if i%2 == 0 {
			state = flow.StateFailed
		}
		records = append(records, flow.Record{
			Src: infected, Dst: botPeers[i%len(botPeers)], SrcPort: 5000, DstPort: 8,
			Proto: flow.TCP, Start: tick, End: tick.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 90, DstBytes: 50, State: state,
		})
		tick = tick.Add(25 * time.Second)
	}
	// Two more hosts running the same bot (the botnet commonality θ_hm
	// needs), without the file-sharing cover.
	for b := 0; b < 2; b++ {
		tick = at
		host := flow.IP(2 + uint32(b))
		for i := 0; i < 400; i++ {
			state := flow.StateEstablished
			if i%2 == 0 {
				state = flow.StateFailed
			}
			records = append(records, flow.Record{
				Src: host, Dst: botPeers[i%len(botPeers)] + flow.IP(b+1)*16, SrcPort: 5000, DstPort: 8,
				Proto: flow.TCP, Start: tick, End: tick.Add(time.Second),
				SrcPkts: 1, DstPkts: 1, SrcBytes: 90, DstBytes: 50, State: state,
			})
			tick = tick.Add(25 * time.Second)
		}
	}
	// The infected host is ALSO a heavy BitTorrent user: huge transfers
	// on 6881 that would dominate the blended average.
	tick = at
	for i := 0; i < 200; i++ {
		state := flow.StateEstablished
		if i%3 == 0 {
			state = flow.StateFailed
		}
		records = append(records, flow.Record{
			Src: infected, Dst: flow.IP(0x09000000 + uint32(rng.Intn(500))), SrcPort: 5001, DstPort: 6881,
			Proto: flow.TCP, Start: tick, End: tick.Add(time.Minute),
			SrcPkts: 500, DstPkts: 500, SrcBytes: uint64(200_000 + rng.Intn(400_000)), DstBytes: 100_000, State: state,
		})
		tick = tick.Add(time.Duration(10+rng.Intn(200)) * time.Second)
	}
	// Background hosts: web browsing with spread failure rates.
	for h := 0; h < 10; h++ {
		tick = at
		failEvery := 3 + h
		for i := 0; i < 250; i++ {
			state := flow.StateEstablished
			if i%failEvery == 0 {
				state = flow.StateFailed
			}
			records = append(records, flow.Record{
				Src: flow.IP(100 + uint32(h)), Dst: flow.IP(0x0A000000 + uint32(rng.Intn(60))), SrcPort: 5002, DstPort: 80,
				Proto: flow.TCP, Start: tick, End: tick.Add(2 * time.Second),
				SrcPkts: 3, DstPkts: 5, SrcBytes: uint64(400 + rng.Intn(2500)), DstBytes: 9000, State: state,
			})
			tick = tick.Add(time.Duration(float64(time.Second) * (0.5 + rng.ExpFloat64()*float64(2+h))))
		}
	}

	// Blended features on the infected host look Trader-like in volume.
	blended := ExtractFeaturesForTest(records, infected)
	if blended < 10_000 {
		t.Fatalf("test setup: blended avg bytes/flow = %v, want Trader-scale", blended)
	}

	cfg := DefaultConfig()
	cfg.MinInterstitialSamples = 30
	cfg.CutFraction = 0.3
	cfg.VolPercentile = 70
	cfg.ChurnPercentile = 70
	res, err := FindPlottersByApplication(records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, flagged := res.Suspects[infected]
	if !flagged {
		t.Fatalf("infected host not flagged; suspects = %v", res.Suspects)
	}
	found := false
	for _, g := range groups {
		if g == "other" { // TCP port 8 buckets into "other"
			found = true
		}
	}
	if !found {
		t.Errorf("bot port group not identified: %v", groups)
	}
	// Every virtual suspect must resolve to one (host, group).
	resolved := 0
	for _, groups := range res.Suspects {
		resolved += len(groups)
	}
	if resolved != len(res.Result.Suspects) {
		t.Errorf("%d of %d virtual suspects resolved to a (host, group)", resolved, len(res.Result.Suspects))
	}
}

// ExtractFeaturesForTest returns the blended avg-bytes-per-flow of one
// host (test helper kept exported-in-test via the internal package).
func ExtractFeaturesForTest(records []flow.Record, host flow.IP) float64 {
	feats := flow.ExtractFeatures(records, flow.FeatureOptions{})
	f := feats[host]
	if f == nil {
		return 0
	}
	return f.AvgBytesPerFlow()
}

func TestFindPlottersByApplicationValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := FindPlottersByApplication(nil, nil, cfg); err == nil {
		t.Error("empty records accepted")
	}
	bad := cfg
	bad.CutFraction = -1
	h := mkHost{addr: 1, flows: 50, bytes: 10, peers: 2, period: time.Second}
	if _, err := FindPlottersByApplication(h.records(), nil, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFindPlottersByApplicationMinFlows(t *testing.T) {
	// A (host, group) pair needs minGroupFlows flows to be analyzed: the
	// hosts at and above the floor each become one virtual host, the one
	// just below it none.
	h1 := mkHost{addr: 1, flows: 100, failEach: 2, bytes: 50, peers: 3, period: 20 * time.Second}
	h2 := mkHost{addr: 2, flows: 100, failEach: 2, bytes: 50, peers: 3, period: 20 * time.Second}
	edge := mkHost{addr: 3, flows: minGroupFlows, bytes: 50, peers: 2, period: time.Second}
	sparse := mkHost{addr: 4, flows: minGroupFlows - 1, bytes: 50, peers: 2, period: time.Second}
	var records []flow.Record
	for _, h := range []mkHost{h1, h2, edge, sparse} {
		records = append(records, h.records()...)
	}
	cfg := DefaultConfig()
	cfg.MinInterstitialSamples = 10
	res, err := FindPlottersByApplication(records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Result.Analysis.Hosts()); got != 3 {
		t.Errorf("%d virtual hosts, want 3 (the %d-flow host is below the floor)", got, minGroupFlows-1)
	}
}
