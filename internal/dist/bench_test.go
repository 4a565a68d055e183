package dist

import (
	"fmt"
	"testing"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
)

// benchSummary builds a shard summary of n hosts shaped like real
// traffic: every host carries the scalar feature vector and a contact
// set, and the θ_hm candidates (about a third) carry a 40-bin sketch.
func benchSummary(n int) *core.ShardSummary {
	sum := &core.ShardSummary{
		Shard:       0,
		Shards:      1,
		Window:      flow.Window{From: time.Unix(0, 0).UTC(), To: time.Unix(3600, 0).UTC()},
		HasContacts: true,
		Hosts:       make([]core.HostSummary, n),
	}
	for i := range sum.Hosts {
		h := &sum.Hosts[i]
		h.Host = flow.IP(0x0a000000 + uint32(i))
		h.Flows = 100 + i
		h.FailedFlows = 10
		h.BytesUploaded = uint64(1000 * (i + 1))
		h.Peers = 20
		h.NewPeers = 5
		h.FirstSeen = time.Unix(int64(i), 0).UTC()
		h.InterstitialCount = 200
		if i%3 == 0 {
			h.SketchPositions = make([]float64, 40)
			h.SketchWeights = make([]float64, 40)
			for j := range h.SketchPositions {
				h.SketchPositions[j] = float64(j) * 0.25
				h.SketchWeights[j] = float64(1 + (i+j)%7)
			}
		}
		h.Contacts = make([]flow.IP, 15)
		for j := range h.Contacts {
			h.Contacts[j] = flow.IP(0x08000000 + uint32(i*15+j))
		}
	}
	return sum
}

// BenchmarkShardSummaryEncode measures the wire cost of the frames that
// cross the shard→coordinator link once per window: the encode side is
// on every worker's seal path, the decode side on the coordinator's
// ingest path.
func BenchmarkShardSummaryEncode(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		sum := benchSummary(n)
		payload := EncodeSummary(0, sum)
		b.Run(fmt.Sprintf("hosts=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportMetric(float64(len(payload))/float64(n), "bytes/host")
			for i := 0; i < b.N; i++ {
				if p := EncodeSummary(0, sum); len(p) != len(payload) {
					b.Fatalf("encode drifted: %d bytes, want %d", len(p), len(payload))
				}
			}
		})
		b.Run(fmt.Sprintf("hosts=%d-decode", n), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeSummary(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
