// Stream-detect: the high-volume deployment path. A busy border (the
// paper's network ran ~5000 flows/second) cannot buffer a day of records
// in memory, so this example drives the continuous detection engine end
// to end: flow records in the order a monitor reports them → sharded
// feature accumulation → the full FindPlotters pipeline at every window
// boundary, all without materializing the trace.
// The detection is `plotfind -window`; the example stays for -serve
// (/metrics and pprof over HTTP) until plotfind has a -serve of its own.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"time"

	"plotters"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stream-detect:", err)
		os.Exit(1)
	}
}

func run() error {
	serve := flag.String("serve", "", "serve live metrics and pprof over HTTP on this address (e.g. localhost:6060); blocks after the feed finishes")
	window := flag.Duration("window", 30*time.Minute, "detection window length")
	flag.Parse()

	start := time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(31))

	// Instrument the whole chain so a deployment can watch record rates,
	// the reorder buffer, shard depth, and per-window pipeline stage
	// times live.
	reg := plotters.NewMetrics()
	if *serve != "" {
		addr, err := serveMetrics(*serve, reg)
		if err != nil {
			return err
		}
		fmt.Printf("metrics at http://%s/metrics (Prometheus text; ?format=json for JSON), pprof at http://%s/debug/pprof/\n", addr, addr)
	}

	// The detection pipeline, scaled to a demo-sized population: fewer
	// contacts per window than a campus day need a lower θ_hm sample
	// floor, and θ_churn needs a new-peer grace shorter than a window.
	cfg := plotters.DefaultConfig()
	cfg.MinInterstitialSamples = 20
	cfg.NewPeerGrace = 10 * time.Minute
	cfg.Metrics = reg

	// The continuous engine: tumbling windows over the live feed. Flow
	// monitors report records at flow *end*, so the feed is only
	// approximately start-ordered; tolerate a monitor's idle-timeout worth
	// of reordering before sealing a window.
	eng, err := plotters.NewWindowedDetector(plotters.EngineConfig{
		Window:   *window,
		Origin:   start,
		MaxSkew:  10 * time.Minute,
		Internal: plotters.IsInternal,
		Core:     cfg,
	}, reportWindow)
	if err != nil {
		return err
	}

	// Synthesize the feed: 30 ordinary web hosts and 3 machines running
	// a periodic bot-like beacon, interleaved in flow-end order.
	fmt.Println("streaming a synthetic flow feed through windowed detection...")
	records := synthesizeFlows(rng, start)
	fmt.Printf("feed: %d flow records over 2 simulated hours, %v windows\n\n", len(records), *window)
	for i := range records {
		if err := eng.Add(&records[i]); err != nil {
			return err
		}
	}
	if err := eng.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d windows detected\n", eng.Windows())

	// The machine-timed beacons stand out every window: high failure
	// rates put them past the reduction, tiny flows past θ_vol, and
	// metronomic interstitials cluster them tightly in θ_hm.
	fmt.Println("hosts 128.2.9.1-3 are the planted beacons.")

	if *serve != "" {
		fmt.Println("\nfeed finished; still serving metrics — interrupt to exit.")
		select {}
	}
	return nil
}

// reportWindow prints one sealed window's pipeline outcome.
func reportWindow(res *plotters.WindowResult) error {
	det := res.Detection
	fmt.Printf("window %d %s\n", res.Index, res.Window)
	fmt.Printf("  hosts=%d records=%d | reduction=%d θ_vol=%d θ_churn=%d → suspects=%d\n",
		res.Hosts, res.Records,
		len(det.Reduction.Kept), len(det.Volume.Kept), len(det.Churn.Kept), len(det.Suspects))
	feats := det.Analysis.Features()
	for _, h := range det.Suspects.Sorted() {
		f := feats[h]
		fmt.Printf("  suspect %-16s flows=%-5d avgBytes/flow=%-8.1f failedRate=%.2f interstitials=%d\n",
			h, f.Flows, f.AvgBytesPerFlow(), f.FailedRate(), len(f.Interstitials))
	}
	return nil
}

// serveMetrics starts an HTTP server exposing the registry at /metrics
// and the runtime profiler under /debug/pprof/, returning the bound
// address.
func serveMetrics(addr string, reg *plotters.Metrics) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "stream-detect: metrics server:", err)
		}
	}()
	return ln.Addr().String(), nil
}

// synthesizeFlows builds the feed, sorted by flow end — the order a flow
// monitor reports in.
func synthesizeFlows(rng *rand.Rand, start time.Time) []plotters.Record {
	var recs []plotters.Record

	// Web browsers; the occasional server never answers, so the
	// population has a realistic spread of failure rates for the
	// reduction's median to work with.
	for h := 0; h < 30; h++ {
		client, _ := plotters.ParseIP(fmt.Sprintf("128.2.8.%d", h+1))
		at := start.Add(time.Duration(rng.Intn(600)) * time.Second)
		port := uint16(40000)
		for at.Before(start.Add(2 * time.Hour)) {
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
			at = at.Add(time.Duration(float64(time.Second) * (2 + rng.ExpFloat64()*20)))
		}
	}
	// Beacons: 3 hosts pinging a small peer set every 30 s; half the
	// peers never answer.
	for h := 0; h < 3; h++ {
		bot, _ := plotters.ParseIP(fmt.Sprintf("128.2.9.%d", h+1))
		at := start.Add(time.Duration(rng.Intn(30)) * time.Second)
		for at.Before(start.Add(2 * time.Hour)) {
			peer, _ := plotters.ParseIP(fmt.Sprintf("199.7.%d.%d", h+1, rng.Intn(6)+1))
			port := uint16(50000 + rng.Intn(1000))
			rec := plotters.Record{Src: bot, Dst: peer, SrcPort: port, DstPort: 8, Proto: plotters.TCP,
				Start: at, End: at, SrcPkts: 1, SrcBytes: 60, State: plotters.StateFailed}
			if rng.Intn(2) == 0 {
				rec.End = at.Add(30 * time.Millisecond)
				rec.SrcPkts, rec.SrcBytes = 2, 60+150
				rec.DstPkts, rec.DstBytes = 1, 60
				rec.State = plotters.StateEstablished
			}
			recs = append(recs, rec)
			at = at.Add(30 * time.Second)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End.Before(recs[j].End) })
	return recs
}
