package dist

import (
	"fmt"
	"testing"
	"time"

	"plotters/internal/engine"
)

// BenchmarkDistClusterShards pushes the two-window cluster corpus
// through a pipe cluster at 1, 2 and 4 shards. Each iteration is a full
// run — connect, stream, seal both windows, drain acks — so records/s
// measures the end-to-end distributed path, not just ingest.
func BenchmarkDistClusterShards(b *testing.B) {
	records := clusterCorpus()
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				windows := 0
				cl, err := NewDistCluster(CoordinatorConfig{Shards: shards, Engine: clusterEngineConfig()},
					func(r *engine.Result) error { windows++; return nil })
				if err != nil {
					b.Fatal(err)
				}
				for j := range records {
					if err := cl.Add(&records[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := cl.AdvanceTo(clusterT0.Add(2 * time.Hour)); err != nil {
					b.Fatal(err)
				}
				if err := cl.Drain(30 * time.Second); err != nil {
					b.Fatal(err)
				}
				cl.Close()
				if windows != 2 {
					b.Fatalf("run emitted %d windows, want 2", windows)
				}
			}
			b.ReportMetric(float64(len(records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
