// Command plotfind runs the FindPlotters detection pipeline over a flow
// trace and prints the suspected P2P bots, with per-stage survivor counts
// and the dynamically computed thresholds.
//
// Usage:
//
//	plotfind [-format binary|csv|jsonl|netflow|ipfix|sflow] [-internal CIDR[,CIDR]] [-metrics FILE] [-v] TRACE
//	plotfind -sample 16 [-sample-seed S] ... TRACE
//	plotfind -window 6h [-slide 1h] [-shards N] [-skew 5m] ... TRACE
//	plotfind -listen :2055 -window 6h [-ingest-batch 32] [-sample N] [-skew 5m] [-state-dir DIR [-checkpoint-every 5m]] ...
//	plotfind -role coordinator -peers :7055 -dist-shards 2 -window 6h -origin TIME ...
//	plotfind -role shard -shard 0 -dist-shards 2 -peers host:7055 -window 6h -origin TIME ... TRACE
//
// From about a thousand clusterable hosts up, θ_hm's pairwise EMD matrix
// runs through the layered pruning kernel on its own: pairs provably
// above the clustering cut (auto-calibrated from a host subsample) skip
// their exact EMD evaluation, with detection output identical to the
// exhaustive run. The -metrics report (and the stdout summary) then
// carries the pair accounting — how many pairs the bound and pivot
// layers skipped versus evaluated exactly.
//
// With -window, the trace streams through the continuous windowed
// detection engine instead of one batch run: records feed a sharded
// feature store and the full pipeline runs at every window boundary,
// printing one summary per window. The trace is never held in memory.
// -slide turns the tumbling windows into overlapping sliding ones,
// -shards sizes the feature store, and -skew sets the reorder tolerance
// for out-of-order feeds.
//
// With -listen, there is no trace file at all: plotfind binds a UDP
// socket, decodes NetFlow v5/v9, IPFIX, and sFlow v5 export packets
// from live exporters, and feeds them straight into the windowed
// engine (-window is required). Datagrams are pulled in recvmmsg
// batches of -ingest-batch through the zero-allocation ingest ring.
// Records beyond the -skew tolerance are counted and dropped, never
// fatal — a live socket cannot re-request the past. Stop with Ctrl-C
// (SIGINT/SIGTERM): the collector drains its queue, the final partial
// window is flushed (marked [partial]), and the summary (plus the
// -metrics report, if requested) is written on the way out.
//
// With -sample N, a deterministic content-hash sampler keeps 1 flow in
// N before detection — in every mode: batch, windowed, live (where it
// runs inside the collector, before the WAL), and distributed (where
// every shard drops the same flow set). The kept subset depends only on
// record content and -sample-seed, never on stream order, so sampled
// runs are exactly reproducible; -sample 1 is bit-identical to no
// sampler at all.
//
// With -role, detection runs distributed across processes. Each -role
// shard process streams a trace through the pipeline's shard-local
// phase — per-host feature reduction and θ_hm histogram sketches for
// the hosts hashing to its shard — and ships only compact versioned
// shard summaries over TCP to the coordinator named by -peers. The
// -role coordinator process binds -peers, merges the summaries of its
// -dist-shards workers, and runs the global phase (percentile
// thresholds, θ_hm clustering, community graph) per window, printing
// the same per-window summaries as a single-process -window run —
// bit-identical to it, by construction. Every node must be started
// with the same -window, -origin, and detection knobs; a mismatch is
// refused at connection time with the offending knob named.
//
// With -state-dir, the live run is crash-safe: every record is
// write-ahead logged before it reaches the engine, and the full
// detection state — per-host features, window positions, collector
// sequence numbers — is snapshotted atomically every -checkpoint-every
// interval and once more on shutdown. Restarting with the same flags
// and directory restores the snapshot, replays the WAL tail, and
// resumes detection exactly where the previous process stopped, even
// after a kill -9.
//
// With -metrics, a JSON run report is written to FILE: trace metadata,
// total elapsed time, and a full metrics snapshot with every pipeline
// stage's duration and survivor count (see the README's Observability
// section). In -listen mode the snapshot includes the collector's
// packet, drop, and sequence-gap counters.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"plotters"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plotfind:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		format    = flag.String("format", "binary", "trace format: "+plotters.TraceFormatNames())
		internals = flag.String("internal", "128.2.0.0/16,128.237.0.0/16", "comma-separated internal CIDR prefixes")
		verbose   = flag.Bool("v", false, "print per-stage host sets")
		volPct    = flag.Float64("vol-pct", 0, "override τ_vol percentile (0 = default)")
		churnPct  = flag.Float64("churn-pct", 0, "override τ_churn percentile (0 = default)")
		hmPct     = flag.Float64("hm-pct", 0, "override τ_hm percentile (0 = default)")
		parallel  = flag.Int("parallelism", 0, "worker count for the θ_hm distance matrix (0 = all CPUs, 1 = sequential)")
		metricsTo = flag.String("metrics", "", "write a JSON run report (stage timings, survivor counts, I/O volume) to this file")
		detectors = flag.String("detectors", "findplotters", "comma-separated detectors to run per window: findplotters, community. More than one prints per-detector and ensemble (union/intersection) suspect counts")
		window    = flag.Duration("window", 0, "run continuous windowed detection with this window length instead of one batch run")
		slide     = flag.Duration("slide", 0, "sliding-window step (0 = tumbling windows; requires -window, must divide it)")
		shards    = flag.Int("shards", 0, "feature-store shard count for -window mode (0 = one per CPU)")
		skew      = flag.Duration("skew", 0, "out-of-order tolerance for -window mode (records later than this are dropped)")
		listen    = flag.String("listen", "", "UDP address to collect live NetFlow exports on (e.g. :2055) instead of reading a trace; requires -window")
		sampleN   = flag.Uint64("sample", 1, "deterministic 1-in-N flow sampling before detection (1 = keep everything); the keep set depends only on record content and -sample-seed")
		sampleKey = flag.Uint64("sample-seed", 0, "seed for -sample's content fingerprint (same seed + same N = same kept flows)")
		inBatch   = flag.Int("ingest-batch", 0, "datagrams per recvmmsg batch on the -listen socket (0 = default, 1 = plain reads)")
		stateDir  = flag.String("state-dir", "", "directory for crash-safe durable state (snapshot + write-ahead log); requires -listen. On start, any state found there is recovered")
		ckptEvery = flag.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval for -state-dir")
		walSync   = flag.Int("wal-sync-every", 256, "fsync the write-ahead log every N records (1 = every record: survives power loss, but gates ingest on fsync latency)")
		role      = flag.String("role", "", "distributed detection role: shard (reduce a trace locally, ship summaries) or coordinator (merge shard summaries, run the global phase); requires -window, -peers, -dist-shards")
		peers     = flag.String("peers", "", "coordinator TCP address: what a shard dials, or what the coordinator binds (required with -role)")
		shardIdx  = flag.Int("shard", 0, "this worker's shard index in [0,dist-shards) for -role shard")
		distN     = flag.Int("dist-shards", 0, "total shard-worker count in the distributed deployment (required with -role)")
		distWait  = flag.Duration("dist-timeout", 0, "coordinator: force-seal a window as [partial] when shards lag this long behind it (0 = wait forever)")
		origin    = flag.String("origin", "", "window alignment origin, RFC 3339 (required with -role, where every node must agree on it; optional with plain -window)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "shard: how long to wait at end of trace for the coordinator to acknowledge every frame")
	)
	flag.Parse()
	switch {
	case *role == "coordinator":
		if flag.NArg() != 0 {
			flag.Usage()
			return fmt.Errorf("-role coordinator takes no trace file argument (shards read the traces)")
		}
	case *listen != "":
		if flag.NArg() != 0 {
			flag.Usage()
			return fmt.Errorf("-listen takes no trace file argument")
		}
		if *window <= 0 {
			return fmt.Errorf("-listen requires -window (live detection is windowed)")
		}
		if *role != "" {
			return fmt.Errorf("-role and -listen are mutually exclusive (shards read trace files)")
		}
	case *stateDir != "":
		return fmt.Errorf("-state-dir requires -listen (durable state protects live collection; file traces just re-run)")
	case flag.NArg() != 1:
		flag.Usage()
		return fmt.Errorf("expected exactly one trace file argument")
	}

	if *inBatch < 0 {
		return fmt.Errorf("-ingest-batch must be >= 0")
	}
	if *inBatch != 0 && *listen == "" {
		return fmt.Errorf("-ingest-batch requires -listen (it sizes the socket's recvmmsg batch)")
	}
	sampler := plotters.FlowSampler{N: *sampleN, Seed: *sampleKey}

	var reg *plotters.Metrics
	if *metricsTo != "" {
		reg = plotters.NewMetrics()
	}
	started := time.Now()

	internal, err := parseSubnets(*internals)
	if err != nil {
		return err
	}
	cfg := plotters.DefaultConfig()
	cfg.Metrics = reg
	if *volPct > 0 {
		cfg.VolPercentile = *volPct
	}
	if *churnPct > 0 {
		cfg.ChurnPercentile = *churnPct
	}
	if *hmPct > 0 {
		cfg.HMPercentile = *hmPct
	}
	cfg.Parallelism = *parallel

	dets, err := buildDetectors(*detectors, cfg, reg)
	if err != nil {
		return err
	}

	if *role != "" {
		if *role != "shard" && *role != "coordinator" {
			return fmt.Errorf("-role must be shard or coordinator, not %q", *role)
		}
		if *window <= 0 {
			return fmt.Errorf("-role requires -window (distributed detection is windowed)")
		}
		if *peers == "" {
			return fmt.Errorf("-role requires -peers (the coordinator's TCP address)")
		}
		if *distN < 1 {
			return fmt.Errorf("-role requires -dist-shards >= 1")
		}
		if *origin == "" {
			return fmt.Errorf("-role requires -origin (shard and coordinator window indices align only against a shared origin)")
		}
		orig, err := time.Parse(time.RFC3339, *origin)
		if err != nil {
			return fmt.Errorf("-origin: %w", err)
		}
		engCfg := plotters.EngineConfig{
			Window:    *window,
			Slide:     *slide,
			Origin:    orig,
			Shards:    *shards,
			MaxSkew:   *skew,
			Internal:  internal,
			Core:      cfg,
			Detectors: dets,
		}
		if *role == "coordinator" {
			return runDistCoordinator(*peers, plotters.CoordinatorConfig{
				Shards:        *distN,
				Engine:        engCfg,
				WindowTimeout: *distWait,
			}, *verbose)
		}
		n, err := runDistShard(flag.Arg(0), *format, reg, engCfg, sampler, *shardIdx, *distN, *peers, *drainWait)
		if err != nil {
			return err
		}
		if reg != nil {
			if err := writeReport(*metricsTo, flag.Arg(0), *format, n, time.Since(started), reg, nil); err != nil {
				return err
			}
			fmt.Printf("run report written to %s\n", *metricsTo)
		}
		return nil
	}
	if *window > 0 {
		engCfg := plotters.EngineConfig{
			Window:    *window,
			Slide:     *slide,
			Shards:    *shards,
			MaxSkew:   *skew,
			Internal:  internal,
			Core:      cfg,
			Detectors: dets,
		}
		if *origin != "" {
			engCfg.Origin, err = time.Parse(time.RFC3339, *origin)
			if err != nil {
				return fmt.Errorf("-origin: %w", err)
			}
		}
		var n int
		var ckpt *checkpointReport
		var source, srcFormat string
		if *listen != "" {
			source, srcFormat = *listen, "netflow-udp"
			engCfg.StateDir = *stateDir
			n, ckpt, err = runListen(*listen, reg, engCfg, sampler, *inBatch, *ckptEvery, *walSync, *verbose)
		} else {
			source, srcFormat = flag.Arg(0), *format
			n, err = runWindowed(source, srcFormat, reg, engCfg, sampler, *verbose)
		}
		if err != nil {
			return err
		}
		if reg != nil {
			if err := writeReport(*metricsTo, source, srcFormat, n, time.Since(started), reg, ckpt); err != nil {
				return err
			}
			fmt.Printf("\nrun report written to %s\n", *metricsTo)
		}
		return nil
	}
	if *slide > 0 || *skew > 0 || *shards > 0 {
		return fmt.Errorf("-slide, -shards, and -skew require -window")
	}

	records, sampledOut, err := readTrace(flag.Arg(0), *format, reg, sampler)
	if err != nil {
		return err
	}
	if sampler.Enabled() {
		fmt.Printf("loaded %d flow records from %s (1-in-%d sampling dropped %d)\n",
			len(records), flag.Arg(0), sampler.N, sampledOut)
	} else {
		fmt.Printf("loaded %d flow records from %s\n", len(records), flag.Arg(0))
	}

	res, err := plotters.FindPlotters(records, internal, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("\nstage           hosts  threshold\n")
	fmt.Printf("analyzed      %7d\n", len(res.Analysis.Hosts()))
	fmt.Printf("reduction     %7d  failed-rate > %.4f\n", len(res.Reduction.Kept), res.Reduction.Threshold)
	fmt.Printf("θ_vol         %7d  avg bytes/flow < %.1f\n", len(res.Volume.Kept), res.Volume.Threshold)
	fmt.Printf("θ_churn       %7d  new-IP fraction < %.4f\n", len(res.Churn.Kept), res.Churn.Threshold)
	fmt.Printf("θ_hm          %7d  cluster spread ≤ %.4f (%d clusters, %d hosts clustered, %d skipped)\n",
		len(res.Suspects), res.HM.Threshold, len(res.HM.Clusters), res.HM.Clustered, res.HM.Skipped)
	if reg != nil {
		if pr, ok := plotters.PruneSummary(reg.TakeSnapshot()); ok {
			fmt.Printf("θ_hm pruning: %d of %d pairs evaluated exactly, +%d calibration (%.1f%%; index pruned %d, bound pruned %d, gated %d)\n",
				pr.Exact, pr.PairsTotal, pr.Calibration, 100*pr.ExactFraction, pr.PrunedIndex, pr.PrunedBound, pr.Gated)
		}
	}

	if *verbose {
		printSet := func(name string, set plotters.HostSet) {
			hosts := set.Sorted()
			strs := make([]string, len(hosts))
			for i, h := range hosts {
				strs[i] = h.String()
			}
			fmt.Printf("\n%s (%d): %s\n", name, len(hosts), strings.Join(strs, " "))
		}
		printSet("S (after reduction)", res.Reduction.Kept)
		printSet("S_vol", res.Volume.Kept)
		printSet("S_churn", res.Churn.Kept)
	}

	fmt.Printf("\nsuspected plotters (%d):\n", len(res.Suspects))
	feats := res.Analysis.Features()
	for _, h := range res.Suspects.Sorted() {
		f := feats[h]
		fmt.Printf("  %-16s flows=%-6d avgBytes/flow=%-9.1f failedRate=%.2f newIPFraction=%.2f\n",
			h, f.Flows, f.AvgBytesPerFlow(), f.FailedRate(), f.NewPeerFraction())
	}

	if dets != nil {
		if err := runBatchEnsemble(dets, res, *verbose); err != nil {
			return err
		}
	}
	if len(res.HM.Clusters) > 0 {
		fmt.Printf("\nθ_hm clusters:\n")
		clusters := append([]plotters.HMCluster(nil), res.HM.Clusters...)
		sort.Slice(clusters, func(i, j int) bool { return clusters[i].Diameter < clusters[j].Diameter })
		for _, c := range clusters {
			marker := " "
			if c.Kept {
				marker = "*"
			}
			if c.Diameter == math.MaxFloat64 {
				// Clamped sentinel spread: the calibrated cut fell below
				// this cluster's true spread (see the pipeline's overcut
				// gauge).
				fmt.Printf("  %s size=%-4d spread=overcut\n", marker, len(c.Hosts))
				continue
			}
			fmt.Printf("  %s size=%-4d spread=%.4f\n", marker, len(c.Hosts), c.Diameter)
		}
		fmt.Printf("(* = kept by τ_hm)\n")
	}
	if reg != nil {
		if err := writeReport(*metricsTo, flag.Arg(0), *format, len(records), time.Since(started), reg, nil); err != nil {
			return err
		}
		fmt.Printf("\nrun report written to %s\n", *metricsTo)
	}
	return nil
}

// buildDetectors parses the -detectors list into detector instances.
// The default single-paper-pipeline spec returns nil, keeping the
// engine's and the batch path's original single-detector behavior.
func buildDetectors(spec string, cfg plotters.Config, reg *plotters.Metrics) ([]plotters.Detector, error) {
	names := strings.Split(spec, ",")
	var out []plotters.Detector
	seen := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("-detectors lists %q twice", name)
		}
		seen[name] = true
		switch name {
		case plotters.PaperDetectorName:
			det, err := plotters.NewPaperDetector(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, det)
		case plotters.CommunityDetectorName:
			ccfg := plotters.DefaultCommunityConfig()
			ccfg.Metrics = reg
			det, err := plotters.NewCommunityDetector(ccfg)
			if err != nil {
				return nil, err
			}
			out = append(out, det)
		default:
			return nil, fmt.Errorf("unknown detector %q (have: %s, %s)",
				name, plotters.PaperDetectorName, plotters.CommunityDetectorName)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-detectors lists no detectors")
	}
	if len(out) == 1 && seen[plotters.PaperDetectorName] {
		return nil, nil
	}
	return out, nil
}

// runBatchEnsemble runs the non-paper detectors of a batch invocation
// over the feature source the paper run already extracted (the paper
// verdict res is reused, not recomputed) and prints per-detector and
// ensemble suspect counts.
func runBatchEnsemble(dets []plotters.Detector, res *plotters.Result, verbose bool) error {
	src := res.Analysis.Source()
	detections := make([]*plotters.Detection, 0, len(dets))
	for _, det := range dets {
		if det.Name() == plotters.PaperDetectorName {
			detections = append(detections, &plotters.Detection{
				Detector: plotters.PaperDetectorName, Suspects: res.Suspects, Paper: res,
			})
			continue
		}
		dn, err := det.Detect(src)
		if err != nil {
			return err
		}
		detections = append(detections, dn)
	}

	fmt.Printf("\ndetector ensemble:\n")
	for _, dn := range detections {
		fmt.Printf("  %-14s suspects=%d", dn.Detector, len(dn.Suspects))
		if rep, ok := dn.Details.(*plotters.CommunityReport); ok {
			fmt.Printf("  graph: hosts=%d edges=%d communities=%d flagged=%d",
				rep.GraphHosts, rep.GraphEdges, len(rep.Communities), len(rep.Flagged))
		}
		fmt.Println()
		if verbose {
			for _, h := range dn.Suspects.Sorted() {
				fmt.Printf("    %s\n", h)
			}
		}
	}
	fmt.Printf("  union=%d intersection=%d\n",
		len(plotters.UnionSuspects(detections)), len(plotters.IntersectSuspects(detections)))
	return nil
}

// runWindowed streams the trace through the continuous detection engine,
// printing one summary per sealed window, and returns the record count.
func runWindowed(path, format string, reg *plotters.Metrics, cfg plotters.EngineConfig, sampler plotters.FlowSampler, verbose bool) (int, error) {
	eng, err := plotters.NewWindowedDetector(cfg, windowPrinter(verbose))
	if err != nil {
		return 0, err
	}
	dropped := 0
	n, sampledOut, err := scanTrace(path, format, reg, sampler, func(rec *plotters.Record) error {
		err := eng.Add(rec)
		if errors.Is(err, plotters.ErrLateRecord) {
			dropped++
			return nil
		}
		return err
	})
	if err != nil {
		return n, err
	}
	if err := eng.Flush(); err != nil {
		return n, err
	}
	fmt.Printf("\n%d records, %d windows detected", n, eng.Windows())
	if dropped > 0 {
		fmt.Printf(", %d records dropped beyond the %v skew tolerance", dropped, cfg.MaxSkew)
	}
	if sampledOut > 0 {
		fmt.Printf(", %d records sampled out (1-in-%d)", sampledOut, sampler.N)
	}
	fmt.Println()
	return n, nil
}

// windowPrinter builds the per-window emit callback shared by the file
// and live ingest paths. Windows flushed before their scheduled end
// (shutdown, end of trace) are marked partial — their counts cover
// only the portion of the window that actually elapsed.
func windowPrinter(verbose bool) func(*plotters.WindowResult) error {
	return func(res *plotters.WindowResult) error {
		partial := ""
		if res.Partial {
			partial = " [partial]"
		}
		if det := res.Detection; det != nil {
			fmt.Printf("window %d %s%s: hosts=%d records=%d reduction=%d vol=%d churn=%d suspects=%d\n",
				res.Index, res.Window, partial, res.Hosts, res.Records,
				len(det.Reduction.Kept), len(det.Volume.Kept), len(det.Churn.Kept), len(det.Suspects))
			if verbose {
				feats := det.Analysis.Features()
				for _, h := range det.Suspects.Sorted() {
					hf := feats[h]
					fmt.Printf("  %-16s flows=%-6d avgBytes/flow=%-9.1f failedRate=%.2f newIPFraction=%.2f\n",
						h, hf.Flows, hf.AvgBytesPerFlow(), hf.FailedRate(), hf.NewPeerFraction())
				}
			}
		} else {
			// No paper pipeline in the detector set: the per-stage survivor
			// counts do not exist, only the detector verdicts below.
			fmt.Printf("window %d %s%s: hosts=%d records=%d\n",
				res.Index, res.Window, partial, res.Hosts, res.Records)
		}
		if len(res.Detections) > 1 || res.Detection == nil {
			parts := make([]string, 0, len(res.Detections))
			for _, dn := range res.Detections {
				parts = append(parts, fmt.Sprintf("%s=%d", dn.Detector, len(dn.Suspects)))
			}
			fmt.Printf("  detectors: %s; union=%d intersection=%d\n",
				strings.Join(parts, " "),
				len(plotters.UnionSuspects(res.Detections)),
				len(plotters.IntersectSuspects(res.Detections)))
		}
		return nil
	}
}

// runListen binds a UDP socket and feeds live NetFlow exports into the
// windowed engine until SIGINT/SIGTERM, then drains, flushes the final
// (partial) window, and returns the record count. Late records are
// dropped and counted rather than treated as fatal — a live socket
// cannot replay the past — and decode runs on a single worker so
// records reach the engine in arrival order.
//
// With a state directory configured, every record is write-ahead
// logged before it reaches the engine and a checkpointer goroutine
// snapshots the full detection state on the -checkpoint-every cadence.
// On start, state left by a previous (possibly crashed) process is
// recovered: the snapshot is restored and the WAL tail replayed, so
// detection resumes exactly where it stopped. Graceful shutdown ends
// with a final checkpoint, so a clean restart replays nothing.
func runListen(addr string, reg *plotters.Metrics, cfg plotters.EngineConfig, sampler plotters.FlowSampler, inBatch int, ckptEvery time.Duration, walSync int, verbose bool) (int, *checkpointReport, error) {
	cfg.DropLate = true
	eng, err := plotters.NewWindowedDetector(cfg, windowPrinter(verbose))
	if err != nil {
		return 0, nil, err
	}

	// n and ingestErr are written only by the collector's single worker
	// and read after Run returns, once every worker has exited.
	n := 0
	var ingestErr error
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var mgr *plotters.CheckpointManager
	add := eng.Add
	if cfg.StateDir != "" {
		mgr, err = plotters.NewCheckpointManager(plotters.CheckpointConfig{
			Interval:  ckptEvery,
			SyncEvery: walSync,
			Metrics:   reg,
		}, eng)
		if err != nil {
			return 0, nil, err
		}
		defer mgr.Close()
		add = mgr.Add
	}

	col, err := plotters.ListenNetFlow(plotters.CollectorConfig{
		Addr:       addr,
		Workers:    1,
		Batch:      inBatch,
		SampleN:    sampler.N,
		SampleSeed: sampler.Seed,
		Metrics:    reg,
		Handler: func(records []plotters.Record) {
			if ingestErr != nil {
				return
			}
			for i := range records {
				n++
				if err := add(&records[i]); err != nil {
					// DropLate absorbs skew; anything left is a real
					// detection, durability, or emit failure — stop
					// collecting.
					ingestErr = err
					stop()
					return
				}
			}
		},
	})
	if err != nil {
		return 0, nil, err
	}

	// Recovery runs after the socket binds but before packets flow
	// (nothing is decoded until col.Run), so replayed windows print
	// before live ones.
	var recovered *plotters.CheckpointRecovery
	ckptErr := make(chan error, 1)
	if mgr != nil {
		mgr.AttachCollector(col)
		recovered, err = mgr.Recover()
		if err != nil {
			return 0, nil, fmt.Errorf("recovering %s: %w", mgr.Dir(), err)
		}
		switch {
		case recovered.SnapshotLoaded:
			fmt.Fprintf(os.Stderr, "recovered state from %s: snapshot of %s, %d WAL records replayed\n",
				mgr.Dir(), recovered.SnapshotCreated.Format(time.RFC3339), recovered.Replayed)
		case recovered.Replayed > 0:
			fmt.Fprintf(os.Stderr, "recovered state from %s: no snapshot, %d WAL records replayed\n",
				mgr.Dir(), recovered.Replayed)
		default:
			fmt.Fprintf(os.Stderr, "durable state in %s (cold start)\n", mgr.Dir())
		}
		if recovered.WALTorn {
			fmt.Fprintln(os.Stderr, "note: WAL ended mid-frame (crash during append); torn tail truncated")
		}
		col.RestoreSequenceStates(recovered.Exporters)
		go func() {
			err := mgr.Run(ctx)
			if err != nil {
				// A failed periodic checkpoint ends Run: no more
				// snapshots, and a WAL that is never rotated again. Stop
				// collecting now instead of ingesting without durability
				// until the operator's Ctrl-C surfaces the error.
				stop()
			}
			ckptErr <- err
		}()
	} else {
		close(ckptErr)
	}
	fmt.Fprintf(os.Stderr, "listening for NetFlow v5/v9, IPFIX, and sFlow on %s (Ctrl-C to stop)\n", col.Addr())

	if err := col.Run(ctx); err != nil {
		return n, nil, err
	}
	stop()
	if err := <-ckptErr; err != nil {
		return n, nil, err
	}
	if ingestErr != nil {
		return n, nil, ingestErr
	}

	// Graceful shutdown: flush the final (partial) window, then commit
	// one last checkpoint so a clean restart replays nothing.
	var ckpt *checkpointReport
	if mgr != nil {
		if err := mgr.Flush(); err != nil {
			return n, nil, err
		}
		if err := mgr.Checkpoint(); err != nil {
			return n, nil, fmt.Errorf("final checkpoint: %w", err)
		}
		st, err := os.Stat(mgr.SnapshotPath())
		if err != nil {
			return n, nil, err
		}
		if err := mgr.Close(); err != nil {
			return n, nil, err
		}
		ckpt = &checkpointReport{
			StateDir:        mgr.Dir(),
			SnapshotPath:    mgr.SnapshotPath(),
			SnapshotBytes:   st.Size(),
			SnapshotLoaded:  recovered.SnapshotLoaded,
			ReplayedRecords: recovered.Replayed,
		}
	} else if err := eng.Flush(); err != nil {
		return n, nil, err
	}

	fmt.Printf("\n%d records collected, %d windows detected", n, eng.Windows())
	if d := eng.Dropped(); d > 0 {
		fmt.Printf(", %d records dropped beyond the %v skew tolerance", d, cfg.MaxSkew)
	}
	fmt.Println()
	if ckpt != nil {
		fmt.Printf("final checkpoint: %s (%d bytes)\n", ckpt.SnapshotPath, ckpt.SnapshotBytes)
	}
	return n, ckpt, nil
}

// runReport is the JSON document -metrics emits: trace metadata plus the
// full metrics snapshot (per-stage durations, survivor-count gauges, and
// I/O counters). Prune summarizes the θ_hm pruning kernel's pair
// accounting when the population was wide enough to engage it.
type runReport struct {
	Tool           string                   `json:"tool"`
	Trace          string                   `json:"trace"`
	Format         string                   `json:"format"`
	Records        int                      `json:"records"`
	ElapsedSeconds float64                  `json:"elapsed_seconds"`
	Checkpoint     *checkpointReport        `json:"checkpoint,omitempty"`
	Prune          *plotters.PruneReport    `json:"prune,omitempty"`
	Metrics        plotters.MetricsSnapshot `json:"metrics"`
}

// checkpointReport records the durable-state outcome of a -state-dir
// run: what was recovered on the way in and the final checkpoint
// committed on the way out.
type checkpointReport struct {
	StateDir        string `json:"state_dir"`
	SnapshotPath    string `json:"snapshot_path"`
	SnapshotBytes   int64  `json:"snapshot_bytes"`
	SnapshotLoaded  bool   `json:"snapshot_loaded"`
	ReplayedRecords int    `json:"replayed_records"`
}

func writeReport(path, trace, format string, records int, elapsed time.Duration, reg *plotters.Metrics, ckpt *checkpointReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	report := runReport{
		Tool:           "plotfind",
		Trace:          trace,
		Format:         format,
		Records:        records,
		ElapsedSeconds: elapsed.Seconds(),
		Checkpoint:     ckpt,
		Metrics:        reg.TakeSnapshot(),
	}
	if pr, ok := plotters.PruneSummary(report.Metrics); ok {
		report.Prune = &pr
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("writing run report: %w", err)
	}
	return f.Close()
}

func parseSubnets(csv string) (func(plotters.IP) bool, error) {
	var subnets []plotters.Subnet
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		sn, err := plotters.ParseSubnet(s)
		if err != nil {
			return nil, err
		}
		subnets = append(subnets, sn)
	}
	if len(subnets) == 0 {
		return nil, fmt.Errorf("no internal subnets given")
	}
	return func(ip plotters.IP) bool {
		for _, sn := range subnets {
			if sn.Contains(ip) {
				return true
			}
		}
		return false
	}, nil
}

// scanTrace streams the trace at path, record by record — it never sits
// in memory — through the metered reader and the content-hash sampler,
// calling fn for every kept record. It returns how many records were
// kept and how many sampled out; an error from fn stops the scan. fn's
// record is overwritten by the next one: copy it to keep it.
func scanTrace(path, format string, reg *plotters.Metrics, sampler plotters.FlowSampler, fn func(*plotters.Record) error) (kept, sampledOut int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	tr, err := plotters.NewTraceReader(f, format)
	if err != nil {
		return 0, 0, err
	}
	plotters.MeterTraceReader(tr, reg)
	// One record for the whole scan: its address goes to fn, so declared
	// inside the loop it would be a heap allocation per record.
	var rec plotters.Record
	for {
		rec, err = tr.Next()
		if errors.Is(err, io.EOF) {
			return kept, sampledOut, nil
		}
		if err != nil {
			return kept, sampledOut, err
		}
		if !sampler.Keep(&rec) {
			sampledOut++
			continue
		}
		kept++
		if err := fn(&rec); err != nil {
			return kept, sampledOut, err
		}
	}
}

// readTrace loads the whole (sampled) trace for a batch run.
func readTrace(path, format string, reg *plotters.Metrics, sampler plotters.FlowSampler) ([]plotters.Record, int, error) {
	var records []plotters.Record
	_, sampledOut, err := scanTrace(path, format, reg, sampler, func(rec *plotters.Record) error {
		records = append(records, *rec)
		return nil
	})
	if err != nil {
		return nil, sampledOut, err
	}
	return records, sampledOut, nil
}
