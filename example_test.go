package plotters_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"plotters"
)

// ExampleExtractFeatures shows the per-host features the detection tests
// are built from.
func ExampleExtractFeatures() {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	host, _ := plotters.ParseIP("128.2.0.1")
	peer, _ := plotters.ParseIP("66.35.250.150")
	var records []plotters.Record
	for i := 0; i < 4; i++ {
		state := plotters.StateEstablished
		if i == 3 {
			state = plotters.StateFailed
		}
		records = append(records, plotters.Record{
			Src: host, Dst: peer, SrcPort: 40000, DstPort: 80, Proto: plotters.TCP,
			Start: start.Add(time.Duration(i) * time.Minute), End: start.Add(time.Duration(i)*time.Minute + time.Second),
			SrcPkts: 3, DstPkts: 3, SrcBytes: 500, DstBytes: 4000,
			State: state,
		})
	}
	feats := plotters.ExtractFeatures(records, plotters.FeatureOptions{})
	f := feats[host]
	fmt.Printf("flows=%d avgBytes=%.0f failedRate=%.2f peers=%d interstitials=%d\n",
		f.Flows, f.AvgBytesPerFlow(), f.FailedRate(), f.Peers, len(f.Interstitials))
	// Output:
	// flows=4 avgBytes=500 failedRate=0.25 peers=1 interstitials=3
}

// ExampleLabelTraders applies the paper's §III ground-truth payload
// rules.
func ExampleLabelTraders() {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	host, _ := plotters.ParseIP("128.2.0.1")
	peer, _ := plotters.ParseIP("87.4.11.2")
	records := []plotters.Record{{
		Src: host, Dst: peer, SrcPort: 6346, DstPort: 6346, Proto: plotters.TCP,
		Start: start, End: start.Add(time.Second),
		SrcPkts: 1, DstPkts: 1, SrcBytes: 100, DstBytes: 100,
		State:   plotters.StateEstablished,
		Payload: []byte("GNUTELLA CONNECT/0.6"),
	}}
	traders := plotters.LabelTraders(records, plotters.IsInternal)
	fmt.Println("trader:", traders[host])
	// Output:
	// trader: true
}

// ExampleRequiredChurnFactor quantifies a §VI evasion cost: how many
// more new peers a bot must contact to masquerade its churn.
func ExampleRequiredChurnFactor() {
	// A bot contacted 100 peers, 20 of them new; to look like a Trader
	// with 90% new peers it must multiply its new contacts by:
	factor := plotters.RequiredChurnFactor(20, 100, 0.9)
	fmt.Printf("%.0fx\n", factor)
	// Output:
	// 36x
}

// Example_quickstart is the library's end-to-end happy path: synthesize
// one campus day with embedded file-sharing Traders, overlay the Storm
// and Nugache honeynet traces onto random active hosts as the paper's
// §V evaluation does, run FindPlotters and score its suspects against
// the ground truth. Everything is seeded, so reruns are identical.
func Example_quickstart() {
	cfg := plotters.DefaultDatasetConfig(7)
	cfg.Days = 1
	cfg.DayTemplate.CampusHosts = 150
	cfg.DayTemplate.Gnutella = 3
	cfg.DayTemplate.EMule = 3
	cfg.DayTemplate.BitTorrent = 4
	cfg.DayTemplate.PeerNetworkNodes = 800
	cfg.Storm.Bots = 4
	cfg.Nugache.Bots = 16
	ds, err := plotters.GenerateDataset(cfg)
	if err != nil {
		panic(err)
	}
	day, err := plotters.OverlayDay(ds.Days[0], ds, 99, plotters.DefaultConfig())
	if err != nil {
		panic(err)
	}
	res, err := day.Analysis.FindPlotters()
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d hosts -> reduction %d -> vol %d / churn %d -> suspects %d\n",
		len(day.Analysis.Hosts()), len(res.Reduction.Kept),
		len(res.Volume.Kept), len(res.Churn.Kept), len(res.Suspects))
	rates := plotters.Score(res.Suspects, day.Analysis.Hosts(), day.Storm.Union(day.Nugache))
	for _, host := range res.Suspects.Sorted() {
		fmt.Printf("%-16s %s\n", host, truth(day, host))
	}
	fmt.Printf("caught %d/%d Storm and %d/%d Nugache bots, %d false positives\n",
		len(res.Suspects.Intersect(day.Storm)), len(day.Storm),
		len(res.Suspects.Intersect(day.Nugache)), len(day.Nugache), rates.FP)
	// Output:
	// 159 hosts -> reduction 79 -> vol 39 / churn 39 -> suspects 12
	// 128.2.1.22       nugache bot
	// 128.2.1.80       campus host (false positive)
	// 128.2.1.102      nugache bot
	// 128.2.1.116      storm bot
	// 128.2.1.118      storm bot
	// 128.2.1.124      campus host (false positive)
	// 128.237.1.19     storm bot
	// 128.237.1.51     nugache bot
	// 128.237.1.109    nugache bot
	// 128.237.1.137    nugache bot
	// 128.237.1.147    nugache bot
	// 128.237.1.159    trader (false positive)
	// caught 3/4 Storm and 6/16 Nugache bots, 3 false positives
}

// ExampleFindPlotters runs the pipeline over one window of records with
// a metrics registry attached, then reads each stage's survivor count
// back from the registry's snapshot. The snapshot also holds stage wall
// times (WriteText prints those too), which differ from run to run; the
// survivor gauges do not.
func ExampleFindPlotters() {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	reg := plotters.NewMetrics()
	cfg := demoConfig()
	cfg.Metrics = reg
	res, err := plotters.FindPlotters(beaconFeed(start), plotters.IsInternal, cfg)
	if err != nil {
		panic(err)
	}
	snap := reg.TakeSnapshot()
	var survivors []string
	for _, stage := range []string{"analyzed", "reduction", "vol", "churn", "suspects"} {
		survivors = append(survivors, fmt.Sprintf("%s=%d", stage, snap.Gauges["pipeline/hosts/"+stage]))
	}
	fmt.Println(strings.Join(survivors, " "))
	fmt.Println("suspects:", res.Suspects.Sorted())
	// Output:
	// analyzed=33 reduction=16 vol=8 churn=8 suspects=2
	// suspects: [128.2.9.2 128.2.9.3]
}

// ExampleFindPlottersByApplication is the paper's §VI suggestion at
// work. Over beaconFeed's two hours θ_hm keeps the two beaconing bots
// whose timing clusters tightest, 128.2.9.2 and .3 (ExampleFindPlotters).
// Here .2 also runs BitTorrent: its uploads lift the host's bytes per
// flow far above θ_vol, and its irregular re-contacts of a 40-peer swarm
// blur its interstitial-time histogram, so the blended pipeline lets it
// go and pairs .1 with .3 instead. Split by application port group, the
// bot's control traffic (TCP port 8, the "other" group) is judged on its
// own, and .2 is caught through it.
func ExampleFindPlottersByApplication() {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	infected, _ := plotters.ParseIP("128.2.9.2")
	records := beaconFeed(start)
	rng := rand.New(rand.NewSource(5))
	for at := start; at.Before(start.Add(2 * time.Hour)); at = at.Add(time.Duration(10+rng.Intn(60)) * time.Second) {
		peer, _ := plotters.ParseIP(fmt.Sprintf("87.4.%d.%d", rng.Intn(5)+1, rng.Intn(8)+1))
		records = append(records, plotters.Record{Src: infected, Dst: peer, SrcPort: 51413, DstPort: 6881, Proto: plotters.TCP,
			Start: at, End: at.Add(time.Minute), SrcPkts: 400, DstPkts: 300,
			SrcBytes: uint64(200_000 + rng.Intn(400_000)), DstBytes: 50_000, State: plotters.StateEstablished})
	}

	cfg := demoConfig()
	blended, err := plotters.FindPlotters(records, plotters.IsInternal, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("blended suspects:", blended.Suspects.Sorted())
	byApp, err := plotters.FindPlottersByApplication(records, plotters.IsInternal, cfg)
	if err != nil {
		panic(err)
	}
	caught := make(plotters.HostSet)
	for host := range byApp.Suspects {
		caught[host] = true
	}
	for _, host := range caught.Sorted() {
		fmt.Printf("port-group suspect %s via %s\n", host, strings.Join(byApp.Suspects[host], ","))
	}
	// Output:
	// blended suspects: [128.2.9.1 128.2.9.3]
	// port-group suspect 128.2.9.2 via other
	// port-group suspect 128.2.9.3 via other
}

// ExampleRunCampaign prints the paper's §VI result from a red-team
// campaign: the cheapest countermeasure that halves each detector's
// detection rate. Evading θ_hm takes minute-scale timer jitter, which
// costs no traffic but slows the botnet's command propagation. The
// community detector watches who talks to whom, not timing or volume, so
// nothing on the grid dents it; evading it takes per-bot disjoint decoy
// sets, the extra-peers cost times the botnet's size.
func ExampleRunCampaign() {
	cfg := plotters.DefaultCampaignConfig(2024)
	cfg.Days = 1
	cfg.Scale = "tiny"
	cfg.Worlds = []string{"baseline"}
	cfg.Intensities = []float64{0.5, 1}
	rep, err := plotters.RunCampaign(cfg)
	if err != nil {
		panic(err)
	}
	for _, det := range rep.Detectors {
		if p, ok := cheapestEffective(rep, det); ok {
			fmt.Printf("%s: %s at intensity %.2f (cost: %+d bytes, %+d peers, +%s latency)\n",
				det, p.Countermeasure, p.Intensity, p.Cost.ExtraBytes, p.Cost.ExtraPeers, p.Cost.AddedLatency)
		} else {
			fmt.Printf("%s: not defeated on the grid\n", det)
		}
	}
	// Output:
	// findplotters: timer-jitter at intensity 0.50 (cost: +0 bytes, +0 peers, +5m0s latency)
	// community: not defeated on the grid
}

// cheapestEffective returns the lowest-intensity frontier point that at
// least halves the detector's Storm + Nugache detection rate on a world.
func cheapestEffective(rep *plotters.CampaignReport, detector string) (best plotters.CampaignFrontierPoint, found bool) {
	rate := func(scores []plotters.CampaignScore) float64 {
		i := slices.IndexFunc(scores, func(s plotters.CampaignScore) bool { return s.Name == detector })
		return scores[i].StormTPR() + scores[i].NugacheTPR()
	}
	for _, w := range rep.Worlds {
		base := rate(w.Baseline)
		for _, p := range w.Frontier {
			if base > 0 && rate(p.Scores) <= base/2 && (!found || p.Intensity < best.Intensity) {
				best, found = p, true
			}
		}
	}
	return best, found
}

// ExampleNewSuite runs the detector day after day, as a campus
// administrator would: thresholds are recomputed from each day's
// traffic, and hosts flagged on several days are escalated (behavioural
// correlation across time). The suite draws the bot hosts afresh each
// day, so the ground truth is per day.
func ExampleNewSuite() {
	cfg := plotters.DefaultDatasetConfig(1234)
	cfg.Days = 3
	cfg.DayTemplate.CampusHosts = 60
	cfg.DayTemplate.Gnutella = 2
	cfg.DayTemplate.EMule = 2
	cfg.DayTemplate.BitTorrent = 3
	cfg.DayTemplate.PeerNetworkNodes = 400
	cfg.Storm.Bots, cfg.Storm.OverlayNodes, cfg.Storm.SeedPeers = 4, 500, 50
	cfg.Nugache.Bots = 16
	ds, err := plotters.GenerateDataset(cfg)
	if err != nil {
		panic(err)
	}
	suite, err := plotters.NewSuite(ds, plotters.DefaultConfig(), 5)
	if err != nil {
		panic(err)
	}
	flagged := make(map[plotters.IP][]string)
	for i := 0; i < cfg.Days; i++ {
		day, err := suite.Day(i)
		if err != nil {
			panic(err)
		}
		res, err := day.Analysis.FindPlotters()
		if err != nil {
			panic(err)
		}
		rates := plotters.Score(res.Suspects, day.Analysis.Hosts(), day.Storm.Union(day.Nugache))
		fmt.Printf("day %d: failRate>%.3f bytes/flow<%.0f newIPs<%.3f spread<=%.3f: %d/%d bots, %d false positives\n",
			i, res.Reduction.Threshold, res.Volume.Threshold, res.Churn.Threshold, res.HM.Threshold,
			rates.TP, rates.Plotters, rates.FP)
		for host := range res.Suspects {
			flagged[host] = append(flagged[host], fmt.Sprintf("day %d %s", i, truth(day, host)))
		}
	}
	repeat := make(plotters.HostSet)
	for host, days := range flagged {
		if len(days) >= 2 {
			repeat[host] = true
		}
	}
	for _, host := range repeat.Sorted() {
		fmt.Printf("%-16s %s\n", host, strings.Join(flagged[host], ", "))
	}
	// Output:
	// day 0: failRate>0.176 bytes/flow<771 newIPs<0.637 spread<=0.519: 3/20 bots, 0 false positives
	// day 1: failRate>0.194 bytes/flow<871 newIPs<0.603 spread<=0.447: 13/20 bots, 0 false positives
	// day 2: failRate>0.130 bytes/flow<991 newIPs<0.624 spread<=0.763: 3/20 bots, 2 false positives
	// 128.2.1.32       day 0 storm bot, day 1 storm bot
	// 128.2.1.44       day 0 storm bot, day 1 nugache bot
}

// ExampleNewWindowedDetector is the high-volume deployment path. A
// border carrying thousands of flows a second cannot buffer a day of
// records, so the continuous engine folds each record into per-host
// features as it arrives and runs the full pipeline at every window
// boundary. Flow monitors report a flow when it ends, so the feed is
// only roughly in start order; the engine tolerates a monitor's idle
// timeout of reordering before it seals a window. The machine-timed
// beacons stand out in every window: high failure rates carry them past
// the reduction, tiny flows past θ_vol, and metronomic interstitials
// cluster them tightly in θ_hm.
func ExampleNewWindowedDetector() {
	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	eng, err := plotters.NewWindowedDetector(plotters.EngineConfig{
		Window:   30 * time.Minute,
		Origin:   start,
		MaxSkew:  10 * time.Minute,
		Internal: plotters.IsInternal,
		Core:     demoConfig(),
	}, func(res *plotters.WindowResult) error {
		det := res.Detection
		fmt.Printf("window %d %s: hosts=%d records=%d reduction=%d vol=%d churn=%d suspects=%d\n",
			res.Index, res.Window, res.Hosts, res.Records,
			len(det.Reduction.Kept), len(det.Volume.Kept), len(det.Churn.Kept), len(det.Suspects))
		feats := det.Analysis.Features()
		for _, h := range det.Suspects.Sorted() {
			f := feats[h]
			fmt.Printf("  %-11s flows=%d avgBytes/flow=%.1f failedRate=%.2f\n", h, f.Flows, f.AvgBytesPerFlow(), f.FailedRate())
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	feed := beaconFeed(start)
	for i := range feed {
		if err := eng.Add(&feed[i]); err != nil {
			panic(err)
		}
	}
	if err := eng.Flush(); err != nil {
		panic(err)
	}
	// Output:
	// window 0 [2007-11-05T09:00:00Z, 2007-11-05T09:30:00Z): hosts=33 records=2324 reduction=16 vol=8 churn=8 suspects=2
	//   128.2.9.2   flows=60 avgBytes/flow=122.5 failedRate=0.58
	//   128.2.9.3   flows=60 avgBytes/flow=137.5 failedRate=0.48
	// window 1 [2007-11-05T09:30:00Z, 2007-11-05T10:00:00Z): hosts=33 records=2728 reduction=16 vol=8 churn=8 suspects=2
	//   128.2.9.1   flows=60 avgBytes/flow=132.5 failedRate=0.52
	//   128.2.9.3   flows=60 avgBytes/flow=150.0 failedRate=0.40
	// window 2 [2007-11-05T10:00:00Z, 2007-11-05T10:30:00Z): hosts=33 records=2588 reduction=16 vol=8 churn=8 suspects=2
	//   128.2.9.1   flows=60 avgBytes/flow=137.5 failedRate=0.48
	//   128.2.9.3   flows=60 avgBytes/flow=147.5 failedRate=0.42
	// window 3 [2007-11-05T10:30:00Z, 2007-11-05T11:00:00Z): hosts=33 records=2630 reduction=16 vol=8 churn=8 suspects=2
	//   128.2.9.1   flows=60 avgBytes/flow=122.5 failedRate=0.58
	//   128.2.9.3   flows=60 avgBytes/flow=135.0 failedRate=0.50
}

// TestExampleNewWindowedDetectorGOMAXPROCS: the example prints the same
// windows and suspects however many goroutines run at once.
func TestExampleNewWindowedDetectorGOMAXPROCS(t *testing.T) {
	printed := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		out := make(chan string)
		go func() {
			b, _ := io.ReadAll(r) // ends when w closes
			r.Close()
			out <- string(b)
		}()
		stdout := os.Stdout
		os.Stdout = w
		defer func() { os.Stdout = stdout }()
		ExampleNewWindowedDetector()
		w.Close()
		return <-out
	}
	one, two := printed(1), printed(2)
	if !strings.Contains(one, "128.2.9.") || one != two {
		t.Errorf("GOMAXPROCS 1 printed\n%s\nGOMAXPROCS 2 printed\n%s", one, two)
	}
}

// demoConfig is the pipeline scaled to the demo-sized population of
// beaconFeed: fewer contacts per window than a campus day need a lower
// θ_hm sample floor, and θ_churn needs a new-peer grace shorter than a
// window.
func demoConfig() plotters.Config {
	cfg := plotters.DefaultConfig()
	cfg.MinInterstitialSamples = 20
	cfg.NewPeerGrace = 10 * time.Minute
	return cfg
}

// beaconFeed is two hours of a seeded border feed in flow-end order, the
// order a flow monitor reports in: 30 web browsers, whose occasional
// unanswered server gives the reduction's median a realistic spread of
// failure rates, and 3 bot-like hosts, 128.2.9.1–3, each beaconing to a
// small peer set every 30 s with half the peers never answering.
func beaconFeed(start time.Time) []plotters.Record {
	rng := rand.New(rand.NewSource(31))
	end := start.Add(2 * time.Hour)
	var recs []plotters.Record
	for h := 0; h < 30; h++ {
		client, _ := plotters.ParseIP(fmt.Sprintf("128.2.8.%d", h+1))
		port := uint16(40000)
		for at := start.Add(time.Duration(rng.Intn(600)) * time.Second); at.Before(end); at = at.Add(time.Duration(float64(time.Second) * (2 + rng.ExpFloat64()*20))) {
			server, _ := plotters.ParseIP(fmt.Sprintf("66.35.%d.%d", rng.Intn(200)+1, rng.Intn(250)+1))
			port++
			rec := plotters.Record{Src: client, Dst: server, SrcPort: port, DstPort: 80, Proto: plotters.TCP,
				Start: at, End: at, SrcPkts: 1, SrcBytes: 60, State: plotters.StateFailed}
			if rng.Intn(12) != 0 {
				rec.End = at.Add(90 * time.Millisecond)
				rec.SrcPkts, rec.SrcBytes = 2, uint64(60+400+rng.Intn(800))
				rec.DstPkts, rec.DstBytes = 2, uint64(60+2000+rng.Intn(20000))
				rec.State = plotters.StateEstablished
				rec.Payload = []byte("GET /")
			}
			recs = append(recs, rec)
		}
	}
	for h := 0; h < 3; h++ {
		bot, _ := plotters.ParseIP(fmt.Sprintf("128.2.9.%d", h+1))
		for at := start.Add(time.Duration(rng.Intn(30)) * time.Second); at.Before(end); at = at.Add(30 * time.Second) {
			peer, _ := plotters.ParseIP(fmt.Sprintf("199.7.%d.%d", h+1, rng.Intn(6)+1))
			rec := plotters.Record{Src: bot, Dst: peer, SrcPort: uint16(50000 + rng.Intn(1000)), DstPort: 8, Proto: plotters.TCP,
				Start: at, End: at, SrcPkts: 1, SrcBytes: 60, State: plotters.StateFailed}
			if rng.Intn(2) == 0 {
				rec.End = at.Add(30 * time.Millisecond)
				rec.SrcPkts, rec.SrcBytes = 2, 60+150
				rec.DstPkts, rec.DstBytes = 1, 60
				rec.State = plotters.StateEstablished
			}
			recs = append(recs, rec)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End.Before(recs[j].End) })
	return recs
}

// truth names a host's ground-truth role on one evaluated day.
func truth(day *plotters.DayEval, host plotters.IP) string {
	switch {
	case day.Storm[host]:
		return "storm bot"
	case day.Nugache[host]:
		return "nugache bot"
	case day.Traders[host]:
		return "trader (false positive)"
	}
	return "campus host (false positive)"
}
