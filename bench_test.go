// Benchmarks regenerating every figure in the paper's evaluation section
// (one bench per figure; Figure 4 is the FindPlotters algorithm itself,
// which every detection bench exercises). Each bench reports the figure's
// headline metrics via b.ReportMetric, so `go test -bench .` doubles as a
// compact reproduction run. The corpus is scaled down from the full
// evaluation (see cmd/experiments for paper-scale runs) but preserves the
// population ratios.
package plotters_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"plotters"
)

// benchCorpus lazily synthesizes one shared scaled-down corpus: two
// collection days plus the two honeynet traces.
var benchCorpus struct {
	once  sync.Once
	ds    *plotters.Dataset
	suite *plotters.Suite
	err   error
}

func corpus(b *testing.B) (*plotters.Dataset, *plotters.Suite) {
	b.Helper()
	benchCorpus.once.Do(func() {
		cfg := plotters.DefaultDatasetConfig(42)
		cfg.Days = 2
		cfg.DayTemplate.CampusHosts = 150
		cfg.DayTemplate.Gnutella = 5
		cfg.DayTemplate.EMule = 5
		cfg.DayTemplate.BitTorrent = 8
		cfg.DayTemplate.PeerNetworkNodes = 1200
		ds, err := plotters.GenerateDataset(cfg)
		if err != nil {
			benchCorpus.err = err
			return
		}
		suite, err := plotters.NewSuite(ds, plotters.DefaultConfig(), 17)
		if err != nil {
			benchCorpus.err = err
			return
		}
		benchCorpus.ds = ds
		benchCorpus.suite = suite
	})
	if benchCorpus.err != nil {
		b.Fatal(benchCorpus.err)
	}
	return benchCorpus.ds, benchCorpus.suite
}

func BenchmarkFigure01AvgFlowSizeCDF(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		cdfs, err := suite.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(cdfs.Trader[len(cdfs.Trader)/2].X, "trader-median-bytes/flow")
			b.ReportMetric(cdfs.Storm[len(cdfs.Storm)/2].X, "storm-median-bytes/flow")
		}
	}
}

func BenchmarkFigure02NewIPFraction(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		r, err := suite.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(r.Trader.NewFraction) > 0 && len(r.Storm.NewFraction) > 0 {
			b.ReportMetric(r.Trader.NewFraction[len(r.Trader.NewFraction)-1], "trader-new-fraction")
			b.ReportMetric(r.Storm.NewFraction[len(r.Storm.NewFraction)-1], "storm-new-fraction")
		}
	}
}

func BenchmarkFigure03Interstitial(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		panels, err := suite.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(panels)), "panels")
		}
	}
}

func BenchmarkFigure05FailedConnCDF(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		cdfs, err := suite.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(cdfs.CMU[len(cdfs.CMU)/2].X, "cmu-median-failed-pct")
			b.ReportMetric(cdfs.Nugache[len(cdfs.Nugache)/2].X, "nugache-median-failed-pct")
		}
	}
}

func BenchmarkFigure06VolumeROC(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		points, err := suite.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			mid := points[len(points)/2] // 50th percentile point
			b.ReportMetric(mid.Storm.TPR(), "storm-tpr@50")
			b.ReportMetric(mid.FPR, "fpr@50")
		}
	}
}

func BenchmarkFigure07ChurnROC(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		points, err := suite.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			mid := points[len(points)/2]
			b.ReportMetric(mid.Storm.TPR(), "storm-tpr@50")
			b.ReportMetric(mid.FPR, "fpr@50")
		}
	}
}

func BenchmarkFigure08HMROC(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		points, err := suite.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			mid := points[len(points)/2]
			b.ReportMetric(mid.Storm.TPR(), "storm-tpr@50")
			b.ReportMetric(mid.FPR, "fpr@50")
		}
	}
}

func BenchmarkFigure09Pipeline(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		r, err := suite.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.StormTPR, "storm-tpr")
			b.ReportMetric(r.NugacheTPR, "nugache-tpr")
			b.ReportMetric(r.FPRate, "fp-rate")
		}
	}
}

func BenchmarkFigure10NugacheFlows(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		r, err := suite.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if pts := r.Stages["hm"]; len(pts) > 0 {
				b.ReportMetric(pts[len(pts)/2].X, "surviving-median-flows")
			}
		}
	}
}

func BenchmarkFigure11EvasionThresholds(b *testing.B) {
	_, suite := corpus(b)
	for i := 0; i < b.N; i++ {
		days, err := suite.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(days) > 0 {
			b.ReportMetric(days[0].StormVolFactor, "storm-vol-factor")
			b.ReportMetric(days[0].NugacheVolFactor, "nugache-vol-factor")
		}
	}
}

func BenchmarkFigure12JitterEvasion(b *testing.B) {
	_, suite := corpus(b)
	// A reduced sweep keeps the bench affordable; cmd/experiments runs
	// the full §VI range.
	sweep := []time.Duration{30 * time.Second, 10 * time.Minute, time.Hour}
	for i := 0; i < b.N; i++ {
		points, err := suite.Figure12(sweep, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(points[0].StormTPR, "storm-tpr@30s")
			b.ReportMetric(points[len(points)-1].StormTPR, "storm-tpr@1h")
		}
	}
}

// BenchmarkFindPlotters measures the core pipeline itself on one overlaid
// day — the per-window cost an operator would pay.
func BenchmarkFindPlotters(b *testing.B) {
	_, suite := corpus(b)
	day, err := suite.Day(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := day.Analysis.FindPlotters(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeDay measures corpus generation throughput.
func BenchmarkSynthesizeDay(b *testing.B) {
	cfg := plotters.DefaultDayConfig(time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC), 9)
	cfg.CampusHosts = 100
	cfg.Gnutella, cfg.EMule, cfg.BitTorrent = 3, 3, 5
	cfg.PeerNetworkNodes = 800
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		day, err := plotters.GenerateDay(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(day.Records)), "records")
	}
}

// hmBenchRecords synthesizes n hosts for the θ_hm benchmark: bot
// families sharing base timers with multiplicative jitter, so every host
// clears MinInterstitialSamples and produces a well-populated log-scale
// histogram (realistically sized EMD signatures, not two-bin spikes).
// Family timers are geometrically spaced (5s·1.15^f, f < 37 — seconds
// to tens of minutes), matching the paper's threat model of distinct
// bot binaries on distinct timers: families are equidistant on the
// log-time axis the pipeline clusters on, instead of smearing into a
// continuum at the top of a linear range.
func hmBenchRecords(n int) []plotters.Record {
	rng := rand.New(rand.NewSource(123))
	start := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	const flowsPerHost = 130
	records := make([]plotters.Record, 0, n*flowsPerHost)
	for i := 0; i < n; i++ {
		base := 5 * math.Pow(1.15, float64(i%37)) * float64(time.Second)
		at := start
		src := plotters.IP(0x80020000 + uint32(i))
		for j := 0; j < flowsPerHost; j++ {
			records = append(records, plotters.Record{
				Src: src, Dst: plotters.IP(0x08000000 + uint32(i*7+j%5)),
				SrcPort: 40000, DstPort: 80, Proto: plotters.TCP,
				Start: at, End: at.Add(time.Second),
				SrcPkts: 2, DstPkts: 2, SrcBytes: 200, DstBytes: 400,
				State: plotters.StateEstablished,
			})
			gap := base * math.Exp(rng.NormFloat64()*0.35)
			at = at.Add(time.Duration(gap))
		}
	}
	return records
}

// BenchmarkHMTest measures θ_hm — the pipeline's dominant cost — at
// n ∈ {64, 256, 1024} clusterable hosts, sequentially (parallelism=1)
// and with one worker per CPU (parallelism=0). The parallel result is
// bit-identical to the sequential one (see
// core.TestHMTestParallelMatchesSequential); only wall-clock differs.
// The metered variants attach a metrics registry, pinning the cost of
// instrumentation on the pipeline's hottest path (it must stay within
// noise: everything is recorded per stage or per worker, never per pair).
// n=1024 is past the width (768) from which HMTest works from the sparse
// below-cut graph (auto-calibrated cut; result bit-identical to the dense
// path, see core.TestHMTestAutoCalibratedPruneMatchesExhaustive), so it
// measures the production choice; CI's bench-gate compares every mode
// against the merge-base.
func BenchmarkHMTest(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		records := hmBenchRecords(n)
		for _, mode := range []struct {
			name        string
			parallelism int
			metrics     bool
		}{
			{"seq", 1, false}, {"par", 0, false},
			{"seq-metered", 1, true}, {"par-metered", 0, true},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				cfg := plotters.DefaultConfig()
				cfg.MinInterstitialSamples = 100
				cfg.Parallelism = mode.parallelism
				if mode.metrics {
					cfg.Metrics = plotters.NewMetrics()
				}
				a, err := plotters.NewAnalysis(records, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				hosts := a.Hosts()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := a.HMTest(hosts, cfg.HMPercentile)
					if err != nil {
						b.Fatal(err)
					}
					if res.Clustered != n {
						b.Fatalf("clustered %d of %d hosts", res.Clustered, n)
					}
					if i == b.N-1 {
						pairs := float64(n) * float64(n-1) / 2
						b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
					}
				}
			})
		}
	}
}

// BenchmarkHMTestPrunedLarge runs θ_hm at the scales where pruning is
// the difference between feasible and not — n ∈ {4096, 16384}
// clusterable hosts, far past the width where HMTest starts pruning (an
// exhaustive fill at n=16384 would evaluate 134M exact EMDs). Alongside
// pairs/s and B/op it reports the engine's own accounting: exact-frac
// is the fraction of pairs that paid an exact EMD evaluation (the ≤0.10
// acceptance ratio at n=4096, calibration included), pruned-frac the
// fraction skipped by the mean index.
func BenchmarkHMTestPrunedLarge(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("n=%d/par-pruned", n), func(b *testing.B) {
			records := hmBenchRecords(n)
			cfg := plotters.DefaultConfig()
			cfg.MinInterstitialSamples = 100
			reg := plotters.NewMetrics()
			cfg.Metrics = reg
			a, err := plotters.NewAnalysis(records, nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			hosts := a.Hosts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := a.HMTest(hosts, cfg.HMPercentile)
				if err != nil {
					b.Fatal(err)
				}
				if res.Clustered != n {
					b.Fatalf("clustered %d of %d hosts", res.Clustered, n)
				}
			}
			b.StopTimer()
			snap := reg.TakeSnapshot()
			total := float64(snap.Counters["distmatrix/pairs_total"])
			if total > 0 {
				exact := float64(snap.Counters["distmatrix/pairs"] +
					snap.Counters["pipeline/hm/calibration_pairs"])
				pruned := float64(snap.Counters["distmatrix/pairs_pruned_index"])
				b.ReportMetric(exact/total, "exact-frac")
				b.ReportMetric(pruned/total, "pruned-frac")
			}
			pairs := float64(n) * float64(n-1) / 2
			b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}
