package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"plotters/internal/flow"
)

func t0() time.Time {
	return time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"vol percentile low", func(c *Config) { c.VolPercentile = -1 }},
		{"vol percentile high", func(c *Config) { c.VolPercentile = 101 }},
		{"churn percentile", func(c *Config) { c.ChurnPercentile = 200 }},
		{"hm percentile", func(c *Config) { c.HMPercentile = -5 }},
		{"cut fraction negative", func(c *Config) { c.CutFraction = -0.1 }},
		{"cut fraction one", func(c *Config) { c.CutFraction = 1 }},
		{"min samples", func(c *Config) { c.MinInterstitialSamples = 1 }},
		{"grace", func(c *Config) { c.NewPeerGrace = 0 }},
		{"vol percentile NaN", func(c *Config) { c.VolPercentile = math.NaN() }},
		{"churn percentile NaN", func(c *Config) { c.ChurnPercentile = math.NaN() }},
		{"hm percentile NaN", func(c *Config) { c.HMPercentile = math.NaN() }},
		{"cut fraction NaN", func(c *Config) { c.CutFraction = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestHostSetOps(t *testing.T) {
	a := NewHostSet(1, 2, 3)
	b := NewHostSet(3, 4)
	u := a.Union(b)
	if len(u) != 4 || !u[1] || !u[4] {
		t.Errorf("Union = %v", u)
	}
	i := a.Intersect(b)
	if len(i) != 1 || !i[3] {
		t.Errorf("Intersect = %v", i)
	}
	sorted := u.Sorted()
	if !reflect.DeepEqual(sorted, []flow.IP{1, 2, 3, 4}) {
		t.Errorf("Sorted = %v", sorted)
	}
	// Union must not mutate the operands.
	if len(a) != 3 || len(b) != 2 {
		t.Error("Union mutated operands")
	}
}

// randomHostSet returns n distinct addresses scattered over the whole
// 32-bit space, and the set of them.
func randomHostSet(n int) ([]flow.IP, HostSet) {
	rng := rand.New(rand.NewSource(int64(n)))
	set := make(HostSet, n)
	hosts := make([]flow.IP, 0, n)
	for len(hosts) < n {
		if h := flow.IP(rng.Uint32()); !set[h] {
			set[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts, set
}

// Sorted at campus width: every window calls it several times over the
// whole population, in map-iteration order.
func TestHostSetSortedLarge(t *testing.T) {
	want, set := randomHostSet(10000)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := set.Sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("Sorted() of %d hosts differs from sort.Slice", len(want))
	}
}

func BenchmarkHostSetSorted(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		_, set := randomHostSet(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := set.Sorted(); len(got) != n {
					b.Fatal(len(got))
				}
			}
		})
	}
}

// mkHost emits flows for one host: total flows, failure rate, bytes per
// flow, number of distinct peers, and an optional fixed timer that drives
// repeated contacts (machine-like behavior).
type mkHost struct {
	addr     flow.IP
	flows    int
	failEach int // every failEach-th flow fails (0 = never)
	bytes    uint64
	peers    int
	period   time.Duration // interstitial gap between flows
	jitterNS int64         // per-flow deterministic "jitter"
}

func (h mkHost) records() []flow.Record {
	out := make([]flow.Record, 0, h.flows)
	at := t0()
	for i := 0; i < h.flows; i++ {
		dst := flow.IP(0x08000000 + uint32(h.addr)*1000 + uint32(i%h.peers))
		state := flow.StateEstablished
		if h.failEach > 0 && i%h.failEach == 0 {
			state = flow.StateFailed
		}
		out = append(out, flow.Record{
			Src: h.addr, Dst: dst, SrcPort: 40000, DstPort: 80, Proto: flow.TCP,
			Start: at, End: at.Add(time.Second),
			SrcPkts: 2, DstPkts: 2, SrcBytes: h.bytes, DstBytes: 100,
			State: state,
		})
		at = at.Add(h.period + time.Duration(int64(i)*h.jitterNS))
	}
	return out
}

func TestReduce(t *testing.T) {
	var records []flow.Record
	// Four hosts with failure rates 0.5, 0.33, 0.1, 0.05 (every 2nd, 3rd,
	// 10th, 20th flow fails).
	for i, failEach := range []int{2, 3, 10, 20} {
		h := mkHost{addr: flow.IP(i + 1), flows: 60, failEach: failEach, bytes: 100, peers: 10, period: time.Minute}
		records = append(records, h.records()...)
	}
	a, err := NewAnalysis(records, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	red, err := a.Reduce()
	if err != nil {
		t.Fatal(err)
	}
	if red.Eligible != 4 {
		t.Errorf("eligible = %d, want 4", red.Eligible)
	}
	// Median of {0.5, 0.333, 0.1, 0.05} ≈ 0.217: the two high-failure
	// hosts stay.
	if len(red.Kept) != 2 || !red.Kept[1] || !red.Kept[2] {
		t.Errorf("kept = %v (threshold %v)", red.Kept.Sorted(), red.Threshold)
	}
}

func TestReduceNoSuccessfulFlows(t *testing.T) {
	h := mkHost{addr: 1, flows: 10, failEach: 1, bytes: 10, peers: 2, period: time.Second}
	a, err := NewAnalysis(h.records(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reduce(); err == nil {
		t.Error("expected error when no host has successful flows")
	}
}

func TestVolumeTest(t *testing.T) {
	var records []flow.Record
	sizes := []uint64{100, 200, 400, 800, 1600}
	for i, size := range sizes {
		h := mkHost{addr: flow.IP(i + 1), flows: 20, bytes: size, peers: 5, period: time.Minute}
		records = append(records, h.records()...)
	}
	a, err := NewAnalysis(records, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := a.Hosts()
	res, err := a.VolumeTest(all, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Median avg-bytes = 400; hosts strictly below survive.
	if res.Threshold != 400 {
		t.Errorf("threshold = %v, want 400", res.Threshold)
	}
	if len(res.Kept) != 2 || !res.Kept[1] || !res.Kept[2] {
		t.Errorf("kept = %v", res.Kept.Sorted())
	}
	// Empty input yields empty output, no error.
	empty, err := a.VolumeTest(HostSet{}, 50)
	if err != nil || len(empty.Kept) != 0 {
		t.Errorf("empty input: %v, %v", empty.Kept, err)
	}
}

func TestChurnTest(t *testing.T) {
	// Host 1: contacts 10 peers in its first hour only (0% new).
	// Host 2: contacts 5 peers in hour one, 15 after (75% new).
	var records []flow.Record
	low := mkHost{addr: 1, flows: 40, bytes: 100, peers: 10, period: time.Minute}
	records = append(records, low.records()...)

	at := t0()
	for i := 0; i < 20; i++ {
		gap := time.Minute
		if i >= 5 {
			gap = 20 * time.Minute // pushes later contacts past the grace hour
		}
		records = append(records, flow.Record{
			Src: 2, Dst: flow.IP(0x09000000 + uint32(i)), SrcPort: 4000, DstPort: 80,
			Proto: flow.TCP, Start: at, End: at.Add(time.Second),
			SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 10, State: flow.StateEstablished,
		})
		at = at.Add(gap)
	}
	a, err := NewAnalysis(records, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.ChurnTest(a.Hosts(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Kept[1] || res.Kept[2] {
		t.Errorf("kept = %v (threshold %v)", res.Kept.Sorted(), res.Threshold)
	}
}

func TestHMTestClustersMachineHosts(t *testing.T) {
	var records []flow.Record
	// Three "bots" with an identical 30-second timer.
	for i := 0; i < 3; i++ {
		h := mkHost{addr: flow.IP(i + 1), flows: 150, bytes: 100, peers: 3, period: 30 * time.Second}
		records = append(records, h.records()...)
	}
	// Three "humans" with increasingly stretched, irregular gaps.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		at := t0()
		for j := 0; j < 150; j++ {
			records = append(records, flow.Record{
				Src: flow.IP(10 + i), Dst: flow.IP(0x0A000000 + uint32(j%3)),
				SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
				Start: at, End: at.Add(time.Second),
				SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 10, State: flow.StateEstablished,
			})
			at = at.Add(time.Duration((1 + rng.ExpFloat64()*float64(20*(i+1))) * float64(time.Second)))
		}
	}
	cfg := DefaultConfig()
	cfg.MinInterstitialSamples = 30
	cfg.CutFraction = 0.4 // few hosts: cut aggressively to isolate groups
	a, err := NewAnalysis(records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.HMTest(a.Hosts(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clustered != 6 {
		t.Fatalf("clustered = %d, want 6", res.Clustered)
	}
	// The three machine hosts must end up in one kept cluster together.
	var machineCluster *HMCluster
	for i := range res.Clusters {
		c := &res.Clusters[i]
		members := NewHostSet(c.Hosts...)
		if members[1] && members[2] && members[3] {
			machineCluster = c
		}
	}
	if machineCluster == nil {
		t.Fatalf("machine hosts not co-clustered: %+v", res.Clusters)
	}
	if !machineCluster.Kept {
		t.Errorf("machine cluster filtered out (diameter %v, τ %v)", machineCluster.Diameter, res.Threshold)
	}
	if !res.Kept[1] || !res.Kept[2] || !res.Kept[3] {
		t.Errorf("kept = %v", res.Kept.Sorted())
	}
}

func TestHMTestSkipsLowSampleHosts(t *testing.T) {
	var records []flow.Record
	// One busy machine-like pair and one host with too few samples.
	for i := 0; i < 2; i++ {
		h := mkHost{addr: flow.IP(i + 1), flows: 200, bytes: 100, peers: 4, period: 10 * time.Second}
		records = append(records, h.records()...)
	}
	sparse := mkHost{addr: 9, flows: 5, bytes: 100, peers: 2, period: time.Minute}
	records = append(records, sparse.records()...)

	cfg := DefaultConfig()
	cfg.MinInterstitialSamples = 50
	a, err := NewAnalysis(records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.HMTest(a.Hosts(), 90)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", res.Skipped)
	}
	if res.Kept[9] {
		t.Error("low-sample host must not pass θ_hm")
	}
}

func TestHMTestTooFewHosts(t *testing.T) {
	h := mkHost{addr: 1, flows: 100, bytes: 100, peers: 3, period: 10 * time.Second}
	a, err := NewAnalysis(h.records(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.HMTest(a.Hosts(), 70)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 0 || len(res.Clusters) != 0 {
		t.Errorf("single host should produce no clusters: %+v", res)
	}
}

func TestFindPlottersEndToEnd(t *testing.T) {
	var records []flow.Record
	// Bots: small flows, few repeat peers, high failure, fixed timer.
	for i := 0; i < 3; i++ {
		h := mkHost{addr: flow.IP(i + 1), flows: 300, failEach: 2, bytes: 80, peers: 4, period: 20 * time.Second}
		records = append(records, h.records()...)
	}
	// Normal hosts: bigger flows, irregular timing, and a *spread* of
	// failure rates (1/3 down to 1/14) so the median-based reduction
	// keeps a realistic mix of bots and flaky-but-normal hosts.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		at := t0()
		failEvery := 3 + i
		for j := 0; j < 200; j++ {
			state := flow.StateEstablished
			if j%failEvery == 0 {
				state = flow.StateFailed
			}
			records = append(records, flow.Record{
				Src: flow.IP(100 + i), Dst: flow.IP(0x0B000000 + uint32(rng.Intn(40)) + uint32(i)*100),
				SrcPort: 4000, DstPort: 80, Proto: flow.TCP,
				Start: at, End: at.Add(time.Second),
				SrcPkts: 2, DstPkts: 2, SrcBytes: uint64(500 + rng.Intn(4000)), DstBytes: 5000, State: state,
			})
			at = at.Add(time.Duration((0.5 + rng.ExpFloat64()*float64(3+i)) * float64(time.Second)))
		}
	}
	cfg := DefaultConfig()
	cfg.MinInterstitialSamples = 30
	cfg.CutFraction = 0.3
	// At this tiny scale the 50th-percentile thresholds would pass only
	// the three bots into θ_hm, where cutting even one link must sever a
	// bot; widen the funnel so clustering has human hosts to separate
	// from.
	cfg.VolPercentile = 70
	cfg.ChurnPercentile = 70
	res, err := FindPlotters(records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if !res.Suspects[flow.IP(i)] {
			t.Errorf("bot %d not detected; suspects = %v", i, res.Suspects.Sorted())
		}
	}
	fps := 0
	for h := range res.Suspects {
		if h >= 100 {
			fps++
		}
	}
	if fps > 2 {
		t.Errorf("%d normal hosts flagged: %v", fps, res.Suspects.Sorted())
	}
	// Result exposes every stage.
	if res.Analysis == nil || len(res.Reduction.Kept) == 0 {
		t.Error("result stages not populated")
	}
}

func TestFindPlottersInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CutFraction = 2
	h := mkHost{addr: 1, flows: 10, bytes: 10, peers: 2, period: time.Second}
	if _, err := FindPlotters(h.records(), nil, cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAnalysisHostFilter(t *testing.T) {
	a1 := mkHost{addr: 1, flows: 10, bytes: 10, peers: 2, period: time.Second}
	a2 := mkHost{addr: 2, flows: 10, bytes: 10, peers: 2, period: time.Second}
	records := append(a1.records(), a2.records()...)
	a, err := NewAnalysis(records, func(ip flow.IP) bool { return ip == 1 }, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Hosts()) != 1 || !a.Hosts()[1] {
		t.Errorf("hosts = %v", a.Hosts().Sorted())
	}
}

// The raw-time ablation must still run end to end (it is the paper's
// literal construction), even though the log axis detects better.
func TestHMTestRawTimeScale(t *testing.T) {
	var records []flow.Record
	for i := 0; i < 4; i++ {
		h := mkHost{addr: flow.IP(i + 1), flows: 120, bytes: 100, peers: 3, period: 15 * time.Second}
		records = append(records, h.records()...)
	}
	cfg := DefaultConfig()
	cfg.RawTimeScale = true
	cfg.MinInterstitialSamples = 30
	cfg.CutFraction = 0.4
	a, err := NewAnalysis(records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.HMTest(a.Hosts(), 90)
	if err != nil {
		t.Fatal(err)
	}
	// Identical machine timers cluster on the raw axis too.
	if len(res.Kept) < 2 {
		t.Errorf("raw-scale kept = %v", res.Kept.Sorted())
	}
}

// MaxDiameter ablation: the strict maximum never undercuts the mean.
func TestClusterSpreadMaxVsMean(t *testing.T) {
	var records []flow.Record
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 6; i++ {
		at := t0()
		for j := 0; j < 100; j++ {
			records = append(records, flow.Record{
				Src: flow.IP(i + 1), Dst: flow.IP(0x0C000000 + uint32(j%3)),
				SrcPort: 1, DstPort: 2, Proto: flow.TCP,
				Start: at, End: at.Add(time.Second),
				SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 10,
				State: flow.StateEstablished,
			})
			at = at.Add(time.Duration((1 + rng.ExpFloat64()*float64(5+i*3)) * float64(time.Second)))
		}
	}
	run := func(maxDiam bool) []HMCluster {
		cfg := DefaultConfig()
		cfg.MaxDiameter = maxDiam
		cfg.MinInterstitialSamples = 30
		cfg.CutFraction = 0.4
		a, err := NewAnalysis(records, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.HMTest(a.Hosts(), 50)
		if err != nil {
			t.Fatal(err)
		}
		return res.Clusters
	}
	meanClusters := run(false)
	maxClusters := run(true)
	if len(meanClusters) != len(maxClusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(meanClusters), len(maxClusters))
	}
	for i := range meanClusters {
		if maxClusters[i].Diameter < meanClusters[i].Diameter-1e-9 {
			t.Errorf("cluster %d: max %v < mean %v", i, maxClusters[i].Diameter, meanClusters[i].Diameter)
		}
	}
}
