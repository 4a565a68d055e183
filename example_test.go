package plotters_test

import (
	"fmt"
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
