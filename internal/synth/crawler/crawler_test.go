package crawler

import (
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/kademlia"
	"plotters/internal/simnet"
	"plotters/internal/stats"
	"plotters/internal/synth"
)

// overlayNodes is the default day's peer population (scenario's
// PeerNetworkNodes): the new-peer fraction is a function of it — a
// walker exhausts a small overlay inside θ_churn's first-hour grace.
const overlayNodes = 2500

// crawl runs one crawler alone over the first three hours of the paper's
// collection window and returns what it emitted.
func crawl(t *testing.T, seed int64) (flow.IP, flow.Window, []flow.Record) {
	t.Helper()
	window := synth.CollectionWindow(time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC))
	window.To = window.From.Add(3 * time.Hour)
	sim := simnet.New(window.From, seed)
	network, err := kademlia.NewOverlay(kademlia.OverlayConfig{
		Nodes:         overlayNodes,
		Start:         window.From.Add(-2 * time.Hour),
		Horizon:       10 * time.Hour,
		MedianSession: 25 * time.Minute,
		MedianOffline: 2 * time.Hour,
		SessionSigma:  1.0,
		AvoidSubnets:  synth.InternalSubnets(),
		Port:          6881,
	}, sim.Fork())
	if err != nil {
		t.Fatal(err)
	}
	host := flow.MakeIP(128, 2, 0, 9)
	c, err := New(DefaultConfig(host, window, network, synth.NewExternalIPPool(sim.Fork(), 20, 1.2)), sim)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	sim.Run(window.To)
	return host, window, sim.Records()
}

// The crawler is the designed hard case: one host that walks the DHT like
// a bot (machine-paced FIND_NODE sweeps over never-seen peers, most of
// them dead) and uploads like a Trader (bulk pushes to a fixed mirror
// set). Both halves must be present, and the trace must be a function of
// the seed alone.
func TestCrawlerSignatures(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		host, window, records := crawl(t, seed)
		if _, _, again := crawl(t, seed); !reflect.DeepEqual(records, again) {
			t.Errorf("seed %d: two runs differ", seed)
		}

		var walks, failedWalks int
		var pushes []float64
		peers, mirrors := map[flow.IP]bool{}, map[flow.IP]bool{}
		for i := range records {
			r := &records[i]
			if r.Src != host || !window.Contains(r.Start) {
				t.Fatalf("seed %d: record %v is not the crawler's or starts outside %v", seed, r, window)
			}
			switch r.Proto {
			case flow.UDP:
				walks++
				peers[r.Dst] = true
				if r.Failed() {
					failedWalks++
				}
			case flow.TCP:
				mirrors[r.Dst] = true
				pushes = append(pushes, float64(r.SrcBytes))
			}
		}
		f := flow.ExtractFeatures(records, flow.FeatureOptions{})[host]

		// The bot-like half: thousands of queries sweeping nearly the
		// whole overlay, most to offline peers, and still meeting
		// strangers after the first hour.
		if walks < 5000 || failedWalks*2 < walks || len(peers)*10 < overlayNodes*9 || f.NewPeerFraction() < 0.2 {
			t.Errorf("seed %d: walk sweep too thin: %d queries (%d failed) to %d peers, new-peer fraction %.2f",
				seed, walks, failedWalks, len(peers), f.NewPeerFraction())
		}

		// The Trader-like half: repeated megabyte pushes to at most three
		// mirrors, enough to lift the host's bytes/flow to Trader scale.
		median, err := stats.Median(pushes)
		if err != nil || len(pushes) < 100 || len(mirrors) > 3 || median < 1e6 || f.AvgBytesPerFlow() < 10_000 {
			t.Errorf("seed %d: snapshot pushes too thin: %d pushes to %d mirrors, median %.0f B, host %.0f B/flow",
				seed, len(pushes), len(mirrors), median, f.AvgBytesPerFlow())
		}
	}
}
