package plotter

import (
	"slices"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/label"
	"plotters/internal/stats"
	"plotters/internal/synth"
)

func day() time.Time {
	return time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
}

// smallStorm returns a cheap Storm config for tests.
func smallStorm() StormConfig {
	cfg := DefaultStormConfig(day())
	cfg.Bots = 4
	cfg.OverlayNodes = 400
	cfg.SeedPeers = 40
	return cfg
}

// smallNugache returns a cheap Nugache config for tests.
func smallNugache() NugacheConfig {
	cfg := DefaultNugacheConfig(day())
	cfg.Bots = 10
	cfg.OverlayNodes = 300
	cfg.PeerListSize = 30
	return cfg
}

func TestStormConfigValidate(t *testing.T) {
	good := smallStorm()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*StormConfig){
		func(c *StormConfig) { c.Bots = 0 },
		func(c *StormConfig) { c.Bots = 1000 },
		func(c *StormConfig) { c.SeedPeers = 0 },
		func(c *StormConfig) { c.OverlayNodes = c.SeedPeers - 1 },
		func(c *StormConfig) { c.SearchPeriod = 0 },
		func(c *StormConfig) { c.KeepalivePeriod = 0 },
		func(c *StormConfig) { c.KeysPerDay = 0 },
		func(c *StormConfig) { c.MsgMedian = 0 },
	}
	for i, mutate := range mutations {
		cfg := smallStorm()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNugacheConfigValidate(t *testing.T) {
	good := smallNugache()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*NugacheConfig){
		func(c *NugacheConfig) { c.Bots = 0 },
		func(c *NugacheConfig) { c.Bots = 9999 },
		func(c *NugacheConfig) { c.OverlayNodes = 0 },
		func(c *NugacheConfig) { c.PeerListSize = 0 },
		func(c *NugacheConfig) { c.Intervals = nil },
		func(c *NugacheConfig) { c.Intervals = []time.Duration{0} },
		func(c *NugacheConfig) { c.MsgMedian = 0 },
		func(c *NugacheConfig) { c.BaseBurst = 0 },
		func(c *NugacheConfig) { c.BaseSleep = 0 },
		func(c *NugacheConfig) { c.DeadPeerFraction = 1 },
		func(c *NugacheConfig) { c.DeadPeerFraction = -0.1 },
	}
	for i, mutate := range mutations {
		cfg := smallNugache()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// botFlows returns the records grouped per bot address; inbound flows
// (peer-initiated) count toward the destination bot.
func botFlows(t *Trace) map[flow.IP][]flow.Record {
	bots := make(map[flow.IP]bool, len(t.Bots))
	for _, b := range t.Bots {
		bots[b] = true
	}
	out := make(map[flow.IP][]flow.Record, len(t.Bots))
	for _, r := range t.Records {
		switch {
		case bots[r.Src]:
			out[r.Src] = append(out[r.Src], r)
		case bots[r.Dst]:
			out[r.Dst] = append(out[r.Dst], r)
		}
	}
	return out
}

func TestGenerateStorm(t *testing.T) {
	trace, err := GenerateStorm(smallStorm(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Bots) != 4 {
		t.Fatalf("bots = %d", len(trace.Bots))
	}
	byBot := botFlows(trace)
	feats := flow.ExtractFeatures(trace.Records, flow.FeatureOptions{})
	for _, bot := range trace.Bots {
		if !HoneynetSubnet.Contains(bot) {
			t.Errorf("bot %v outside honeynet subnet", bot)
		}
		if len(byBot[bot]) < 200 {
			t.Errorf("bot %v emitted only %d flows over 24h", bot, len(byBot[bot]))
		}
		f := feats[bot]
		// Storm control traffic: tiny flows, substantial failures, low
		// churn (repeat contacts dominate after the first hour).
		if f.AvgBytesPerFlow() > 600 {
			t.Errorf("bot %v avg bytes/flow = %v, want control-message scale", bot, f.AvgBytesPerFlow())
		}
		if f.FailedRate() < 0.2 || f.FailedRate() > 0.85 {
			t.Errorf("bot %v failed rate = %v, want churn-driven", bot, f.FailedRate())
		}
		if f.NewPeerFraction() > 0.6 {
			t.Errorf("bot %v new-peer fraction = %v, want low churn", bot, f.NewPeerFraction())
		}
	}
	// Records must be valid, sorted, and never labeled as file sharing.
	for i := range trace.Records {
		if err := trace.Records[i].Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if i > 0 && trace.Records[i].Start.Before(trace.Records[i-1].Start) {
			t.Fatal("records not sorted")
		}
	}
	if traders := label.Traders(trace.Records, nil); len(traders) != 0 {
		t.Errorf("storm traffic matched file-sharing signatures: %v", traders)
	}
	// Outbound flows never target campus addresses; inbound flows come
	// from overlay peers to the bot itself.
	for i := range trace.Records {
		r := &trace.Records[i]
		if HoneynetSubnet.Contains(r.Src) {
			if synth.IsInternal(r.Dst) || HoneynetSubnet.Contains(r.Dst) {
				t.Fatalf("bot contacted reserved destination %v", r.Dst)
			}
		} else if !HoneynetSubnet.Contains(r.Dst) {
			t.Fatalf("record touches no bot: %v", r)
		}
	}
}

func TestStormTimerSignature(t *testing.T) {
	trace, err := GenerateStorm(smallStorm(), 12)
	if err != nil {
		t.Fatal(err)
	}
	feats := flow.ExtractFeatures(trace.Records, flow.FeatureOptions{})
	f := feats[trace.Bots[0]]
	med, err := stats.Median(f.Interstitials)
	if err != nil {
		t.Fatal(err)
	}
	// Keepalive timer dominates the per-destination gaps: the median
	// interstitial should sit near the keepalive period (60 s ± jitter
	// and scheduling slack).
	if med < 30 || med > 200 {
		t.Errorf("median interstitial = %vs, want near the 60s keepalive", med)
	}
}

func TestGenerateNugache(t *testing.T) {
	trace, err := GenerateNugache(smallNugache(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Bots) != 10 {
		t.Fatalf("bots = %d", len(trace.Bots))
	}
	feats := flow.ExtractFeatures(trace.Records, flow.FeatureOptions{})
	var flows []float64
	var fails []float64
	for _, bot := range trace.Bots {
		f := feats[bot]
		if f == nil {
			flows = append(flows, 0)
			continue
		}
		flows = append(flows, float64(f.Flows))
		fails = append(fails, f.FailedRate())
	}
	// High failure rates (dead peers + churn): the paper reports >65%
	// for almost all Nugache bots.
	medFail, err := stats.Median(fails)
	if err != nil {
		t.Fatal(err)
	}
	if medFail < 0.5 {
		t.Errorf("median failed rate = %v, want Nugache-high", medFail)
	}
	// Highly variable activity: max bot well above the min active bot
	// (the full 82-bot config spreads far wider; 10 bots bound the tail).
	minF := slices.Min(flows)
	maxF := slices.Max(flows)
	if maxF < 3*(minF+1) {
		t.Errorf("activity spread too narrow: min %v max %v", minF, maxF)
	}
	// TCP port 8, the Nugache signature.
	for i := range trace.Records {
		if trace.Records[i].DstPort != 8 || trace.Records[i].Proto != flow.TCP {
			t.Fatal("nugache flow not TCP port 8")
		}
	}
	if traders := label.Traders(trace.Records, nil); len(traders) != 0 {
		t.Errorf("nugache traffic matched file-sharing signatures: %v", traders)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a, err := GenerateStorm(smallStorm(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStorm(smallStorm(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Dst != b.Records[i].Dst || !a.Records[i].Start.Equal(b.Records[i].Start) {
			t.Fatalf("traces diverge at %d", i)
		}
	}
	// Different seeds give different traces.
	c, err := GenerateStorm(smallStorm(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) == len(c.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i].Dst != c.Records[i].Dst {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestBotFlows(t *testing.T) {
	trace, err := GenerateNugache(smallNugache(), 14)
	if err != nil {
		t.Fatal(err)
	}
	byBot := botFlows(trace)
	total := 0
	for _, recs := range byBot {
		total += len(recs)
	}
	if total != len(trace.Records) {
		t.Errorf("BotFlows total %d != records %d", total, len(trace.Records))
	}
}
