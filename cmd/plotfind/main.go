// Command plotfind runs the FindPlotters detection pipeline over flow
// records and prints the suspected P2P bots, with per-stage survivor
// counts and the dynamically computed thresholds. A run is a source
// feeding an engine that prints to a sink; the flags pick one of each.
//
//	plotfind [-format F] [-internal CIDR[,CIDR]] [-sample N] [-metrics FILE] [-v] TRACE
//	plotfind -window 6h [-slide 1h] [-shards N] [-skew 5m] [-origin TIME] ... TRACE
//	plotfind -listen :2055 -window 6h [-ingest-batch 32] [-state-dir DIR [-checkpoint-every 5m]] ...
//	plotfind -role shard -shard 0 -dist-shards 2 -peers host:7055 -window 6h ... TRACE
//	plotfind -role coordinator -peers :7055 -dist-shards 2 -window 6h ...
//
// Source. A TRACE file is streamed record by record. -listen binds a UDP
// socket instead and decodes NetFlow v5/v9, IPFIX and sFlow v5 exports
// (recvmmsg batches of -ingest-batch) until SIGINT/SIGTERM, then drains
// its queue. The coordinator reads no records: shards send it summaries.
// Whatever the source, -sample N keeps 1 flow in N by a deterministic
// content hash, so every shard drops the same flows and sampled runs are
// reproducible.
//
// Engine. Without -window the records are collected and FindPlotters
// runs once. -window streams them through the continuous windowed
// engine: the full pipeline at every window boundary, tumbling or
// -slide, aligned at -origin (default the Unix epoch). With -listen,
// -state-dir puts a checkpoint manager around that engine — every
// record write-ahead logged, the detection state snapshotted every
// -checkpoint-every and on shutdown — so a restart with the same flags
// resumes exactly where the last process stopped, even after kill -9; a
// failed periodic checkpoint stops collection. -role shard runs only
// the shard-local phase for the hosts hashing to -shard of -dist-shards
// and ships versioned summaries over TCP to -peers; -role coordinator
// binds -peers, merges them and runs the global phase per window. Every
// node must run with the same -window, -origin and detection knobs (a
// mismatch is refused at connection time, naming the knob); the result
// is then bit-identical to a single -window process. One loop feeds
// every engine, with one policy: a record more than -skew behind the
// stream is counted and dropped, never fatal, and at end of feed the
// watermark advances to the last record and the tail window is flushed,
// marked [partial].
//
// Sink. One line per sealed window (suspects with -v), or the batch
// run's stage table, suspects and θ_hm clusters when -detectors lists
// the paper pipeline; several detectors, or one other than the paper
// pipeline, add per-detector and ensemble counts. -metrics writes a JSON
// run report with every stage's duration and survivor count, the
// collector's counters and the final checkpoint (README, Observability).
// -serve, in any mode, serves the same registry live over HTTP while the
// run lasts: /metrics (Prometheus text, JSON with ?format=json) and the
// runtime profiler under /debug/pprof/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"plotters"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "plotfind:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	format, internals, metricsTo, detectors string
	listen, stateDir, role, peers, origin   string
	serve                                   string
	verbose                                 bool
	volPct, churnPct, hmPct                 float64
	parallel, shards, inBatch, walSync      int
	shardIdx, distN                         int
	window, slide, skew                     time.Duration
	ckptEvery, distWait, drainWait          time.Duration
	sampler                                 plotters.FlowSampler

	set   map[string]bool // flags given explicitly
	nargs int             // positional arguments
	trace string          // the first of them: the source, when it is a file
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{set: map[string]bool{}}
	fs := flag.NewFlagSet("plotfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.format, "format", "binary", "trace format: "+plotters.TraceFormatNames())
	fs.StringVar(&o.internals, "internal", "128.2.0.0/16,128.237.0.0/16", "comma-separated internal CIDR prefixes")
	fs.BoolVar(&o.verbose, "v", false, "print per-stage host sets")
	fs.Float64Var(&o.volPct, "vol-pct", 0, "override τ_vol percentile (0 = default)")
	fs.Float64Var(&o.churnPct, "churn-pct", 0, "override τ_churn percentile (0 = default)")
	fs.Float64Var(&o.hmPct, "hm-pct", 0, "override τ_hm percentile (0 = default)")
	fs.IntVar(&o.parallel, "parallelism", 0, "worker count for the θ_hm distance matrix (0 = all CPUs, 1 = sequential)")
	fs.StringVar(&o.metricsTo, "metrics", "", "write a JSON run report (stage timings, survivor counts, I/O volume) to this file")
	fs.StringVar(&o.serve, "serve", "", "serve live metrics at /metrics (Prometheus text; ?format=json for JSON) and pprof at /debug/pprof/ over HTTP on this address (e.g. localhost:6060) while the run lasts")
	fs.StringVar(&o.detectors, "detectors", "findplotters", "comma-separated detectors to run per window: findplotters, community. More than one prints per-detector and ensemble (union/intersection) suspect counts")
	fs.DurationVar(&o.window, "window", 0, "run continuous windowed detection with this window length instead of one batch run")
	fs.DurationVar(&o.slide, "slide", 0, "sliding-window step (0 = tumbling windows; requires -window, must divide it)")
	fs.IntVar(&o.shards, "shards", 0, "feature-store shard count for -window mode (0 = one per CPU)")
	fs.DurationVar(&o.skew, "skew", 0, "out-of-order tolerance for -window mode (records later than this are dropped)")
	fs.StringVar(&o.listen, "listen", "", "UDP address to collect live NetFlow exports on (e.g. :2055) instead of reading a trace; requires -window")
	fs.Uint64Var(&o.sampler.N, "sample", 1, "deterministic 1-in-N flow sampling before detection (1 = keep everything); the keep set depends only on record content and -sample-seed")
	fs.Uint64Var(&o.sampler.Seed, "sample-seed", 0, "seed for -sample's content fingerprint (same seed + same N = same kept flows)")
	fs.IntVar(&o.inBatch, "ingest-batch", 0, "datagrams per recvmmsg batch on the -listen socket (0 = default, 1 = plain reads)")
	fs.StringVar(&o.stateDir, "state-dir", "", "directory for crash-safe durable state (snapshot + write-ahead log); requires -listen. On start, any state found there is recovered")
	fs.DurationVar(&o.ckptEvery, "checkpoint-every", 5*time.Minute, "periodic checkpoint interval for -state-dir (0 = checkpoint only at shutdown)")
	fs.IntVar(&o.walSync, "wal-sync-every", 256, "write out and fsync the write-ahead log every N records: bounds what a kill or a power loss can lose of the records no emitted window or snapshot depends on yet (1 = nothing, but gates ingest on fsync latency)")
	fs.StringVar(&o.role, "role", "", "distributed detection role: shard (reduce a trace locally, ship summaries) or coordinator (merge shard summaries, run the global phase); requires -window, -peers, -dist-shards")
	fs.StringVar(&o.peers, "peers", "", "coordinator TCP address: what a shard dials, or what the coordinator binds (required with -role)")
	fs.IntVar(&o.shardIdx, "shard", 0, "this worker's shard index in [0,dist-shards) for -role shard")
	fs.IntVar(&o.distN, "dist-shards", 0, "total shard-worker count in the distributed deployment (required with -role)")
	fs.DurationVar(&o.distWait, "dist-timeout", 0, "coordinator: force-seal a window as [partial] when shards lag this long behind it (0 = wait forever)")
	fs.StringVar(&o.origin, "origin", "", "window alignment origin, RFC 3339 (default the Unix epoch; every node of a -role deployment must agree on it)")
	fs.DurationVar(&o.drainWait, "drain-timeout", 30*time.Second, "shard: how long to wait at end of trace for the coordinator to acknowledge every frame")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	o.nargs, o.trace = fs.NArg(), fs.Arg(0)
	return o, nil
}

// mode is which engine the flags select, plus — for the one engine that
// takes either — whether a file or a socket feeds it.
type mode int

const (
	batchMode mode = iota
	windowMode
	liveMode
	shardMode
	coordMode
)

// validate settles the mode and rejects, before any work, every flag it
// would silently ignore and every flag or argument it is missing.
func (o *options) validate() (mode, error) {
	m := batchMode
	switch {
	case o.role == "coordinator":
		m = coordMode
	case o.role == "shard":
		m = shardMode
	case o.role != "":
		return 0, fmt.Errorf("-role must be shard or coordinator, not %q", o.role)
	case o.listen != "":
		m = liveMode
	case o.window > 0:
		m = windowMode
	}
	set, live, dist := o.set, m == liveMode, m == shardMode || m == coordMode
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{set["listen"] && !live, "-listen and -role are mutually exclusive (shards read trace files, the coordinator reads no records)"},
		{set["state-dir"] && !live, "-state-dir requires -listen (durable state protects live collection; file traces just re-run)"},
		{(set["checkpoint-every"] || set["wal-sync-every"]) && (!live || o.stateDir == ""), "-checkpoint-every and -wal-sync-every require -listen -state-dir"},
		{set["ingest-batch"] && !live, "-ingest-batch requires -listen (it sizes the socket's recvmmsg batch)"},
		{o.inBatch < 0, "-ingest-batch must be >= 0"},
		{o.shards < 0, "-shards must be >= 0 (0 = one per CPU)"},
		{o.ckptEvery < 0, "-checkpoint-every must be >= 0 (0 = checkpoint only at shutdown)"},
		{o.walSync < 1, "-wal-sync-every must be >= 1"},
		{o.drainWait < 0, "-drain-timeout must be >= 0"},
		{o.window < 0, "-window must be >= 0 (0 = one batch run)"},
		{!(o.volPct >= 0 && o.churnPct >= 0 && o.hmPct >= 0), "-vol-pct, -churn-pct and -hm-pct must be >= 0 (0 = default)"},
		{(set["slide"] || set["shards"] || set["skew"] || set["origin"]) && m == batchMode, "-slide, -shards, -skew and -origin require -window"},
		{(set["peers"] || set["dist-shards"]) && !dist, "-peers and -dist-shards require -role"},
		{(set["shard"] || set["drain-timeout"]) && m != shardMode, "-shard and -drain-timeout require -role shard"},
		{set["dist-timeout"] && m != coordMode, "-dist-timeout requires -role coordinator (it bounds the wait for lagging shards)"},
		{m == coordMode && (set["sample"] || set["sample-seed"] || set["format"] || set["internal"] || set["shards"]), "-sample, -sample-seed, -format, -internal and -shards shape record ingest, and -role coordinator reads no records"},
		{m == shardMode && (set["detectors"] || set["vol-pct"] || set["churn-pct"] || set["hm-pct"]), "-detectors, -vol-pct, -churn-pct and -hm-pct apply to -role coordinator (a shard ships summaries; detection and its percentiles run at the coordinator)"},
		{live && set["format"], "-format names a trace file's format (-listen decodes NetFlow v5/v9, IPFIX and sFlow as they arrive)"},
		{o.sampler.N == 0, "-sample must be >= 1"},
		{set["sample-seed"] && o.sampler.N == 1, "-sample-seed requires -sample > 1 (1-in-1 sampling keeps every flow)"},
		{o.distWait < 0, "-dist-timeout must be >= 0 (0 waits forever)"},
		{live && o.window <= 0, "-listen requires -window (live detection is windowed)"},
		{dist && o.window <= 0, "-role requires -window (distributed detection is windowed)"},
		{dist && o.peers == "", "-role requires -peers (the coordinator's TCP address)"},
		{dist && o.distN < 1, "-role requires -dist-shards >= 1"},
		{live && o.nargs != 0, "-listen takes no trace file argument"},
		{m == coordMode && o.nargs != 0, "-role coordinator takes no trace file argument (shards read the traces)"},
		{!live && m != coordMode && o.nargs != 1, "expected exactly one trace file argument"},
	} {
		if c.bad {
			return 0, errors.New(c.msg)
		}
	}
	return m, nil
}

// engine is what a record source feeds: the method set the windowed
// detector, the checkpoint manager around it and the shard worker
// share, and that batch implements over a slice.
type engine interface {
	Add(*plotters.Record) error
	AdvanceTo(time.Time) error
	Flush() error
}

// tally is what a feed counted.
type tally struct {
	records, late, sampledOut int
	last                      time.Time // newest record start: the end-of-feed watermark
}

// feed streams a trace file into eng — the command's one record loop,
// whatever the engine. A record beyond the skew tolerance is counted,
// never fatal; at end of trace the watermark advances to the last record,
// sealing every window the trace covered, and the tail is flushed partial.
func feed(path, format string, reg *plotters.Metrics, sampler plotters.FlowSampler, eng engine) (tally, error) {
	var t tally
	var err error
	t.records, t.sampledOut, err = plotters.ScanTraceFile(path, format, reg, sampler, func(rec *plotters.Record) error {
		if rec.Start.After(t.last) {
			t.last = rec.Start
		}
		err := eng.Add(rec)
		if errors.Is(err, plotters.ErrLateRecord) {
			t.late++
			return nil
		}
		return err
	})
	if err != nil {
		return t, err
	}
	if !t.last.IsZero() {
		if err := eng.AdvanceTo(t.last); err != nil {
			return t, err
		}
	}
	return t, eng.Flush()
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	m, err := o.validate()
	if err != nil {
		return err
	}

	var reg *plotters.Metrics
	if o.metricsTo != "" || o.serve != "" {
		reg = plotters.NewMetrics()
	}
	started := time.Now()

	internal, err := plotters.ParseSubnets(o.internals)
	if err != nil {
		return err
	}
	cfg := plotters.DefaultConfig()
	cfg.Metrics = reg
	if o.volPct > 0 {
		cfg.VolPercentile = o.volPct
	}
	if o.churnPct > 0 {
		cfg.ChurnPercentile = o.churnPct
	}
	if o.hmPct > 0 {
		cfg.HMPercentile = o.hmPct
	}
	cfg.Parallelism = o.parallel
	community := plotters.DefaultCommunityConfig()
	community.Metrics = reg
	dets, err := plotters.ParseDetectors(o.detectors, cfg, community)
	if err != nil {
		return err
	}
	engCfg := plotters.EngineConfig{
		Window:    o.window,
		Slide:     o.slide,
		Shards:    o.shards,
		MaxSkew:   o.skew,
		Internal:  internal,
		StateDir:  o.stateDir,
		Core:      cfg,
		Detectors: dets,
	}
	if o.origin != "" {
		if engCfg.Origin, err = time.Parse(time.RFC3339, o.origin); err != nil {
			return fmt.Errorf("-origin: %w", err)
		}
	}
	if o.serve != "" {
		stop, err := serve(o.serve, reg, stderr)
		if err != nil {
			return err
		}
		defer stop()
	}
	emit := windowPrinter(stdout, o.verbose)
	if m == liveMode || m == coordMode { // the modes that run until told to stop
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	// What the report says was read, and the blank line that sets it off.
	source, srcFormat, sep := o.trace, o.format, "\n"
	var t tally
	var ckpt *checkpointReport
	switch m {
	case coordMode:
		source, srcFormat = o.peers, "shard-summaries"
		err = runCoordinator(ctx, plotters.CoordinatorConfig{Shards: o.distN, Engine: engCfg, WindowTimeout: o.distWait}, o.peers, emit, stdout, stderr)
	case liveMode:
		source, srcFormat = o.listen, "netflow-udp"
		t, ckpt, err = o.runLive(ctx, engCfg, reg, emit, stdout, stderr)
	case shardMode:
		sep = ""
		var worker *plotters.ShardWorker
		worker, err = plotters.NewShardWorker(plotters.ShardWorkerConfig{
			Shard:  o.shardIdx,
			Shards: o.distN,
			Engine: engCfg,
			Dial:   func() (net.Conn, error) { return net.Dial("tcp", o.peers) },
		})
		if err != nil {
			return err
		}
		defer worker.Close()
		fmt.Fprintf(stderr, "shard %d/%d: streaming %s to coordinator %s\n", o.shardIdx, o.distN, o.trace, o.peers)
		if t, err = feed(o.trace, o.format, reg, o.sampler, worker); err != nil {
			return err
		}
		if err := worker.Drain(o.drainWait); err != nil {
			return fmt.Errorf("shard %d: %w (%d frames unacknowledged — is the coordinator still up?)",
				o.shardIdx, err, worker.Outstanding())
		}
		o.closing(stdout, t, "shard %d/%d: %d records read, %d windows shipped to %s",
			o.shardIdx, o.distN, t.records, worker.Engine().Windows(), o.peers)
	case windowMode:
		var eng *plotters.WindowedDetector
		if eng, err = plotters.NewWindowedDetector(engCfg, emit); err != nil {
			return err
		}
		if t, err = feed(o.trace, o.format, reg, o.sampler, eng); err == nil {
			o.closing(stdout, t, "\n%d records, %d windows detected", t.records, eng.Windows())
		}
	default:
		b := &batch{}
		if t, err = feed(o.trace, o.format, reg, o.sampler, b); err == nil {
			err = b.detect(stdout, o, t, internal, cfg, dets)
		}
	}
	if err != nil || o.metricsTo == "" {
		return err
	}
	if err := writeReport(o.metricsTo, source, srcFormat, t.records, time.Since(started), reg, ckpt); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%srun report written to %s\n", sep, o.metricsTo)
	return nil
}

// serve binds addr and serves reg at /metrics and the runtime profiler
// under /debug/pprof/ until the returned stop is called, which closes
// the listener and waits for the server to exit.
func serve(addr string, reg *plotters.Metrics, stderr io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "plotfind: -serve:", err)
		}
	}()
	bound := ln.Addr()
	fmt.Fprintf(stderr, "metrics at http://%s/metrics (Prometheus text; ?format=json for JSON), pprof at http://%s/debug/pprof/\n", bound, bound)
	return func() {
		srv.Close()
		<-done
	}, nil
}

// closing prints a streaming run's last line: what it read and sealed,
// then what the feed lost to the skew tolerance and to sampling.
func (o *options) closing(w io.Writer, t tally, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
	if t.late > 0 {
		fmt.Fprintf(w, ", %d records dropped beyond the %v skew tolerance", t.late, o.skew)
	}
	if t.sampledOut > 0 {
		fmt.Fprintf(w, ", %d records sampled out (1-in-%d)", t.sampledOut, o.sampler.N)
	}
	fmt.Fprintln(w)
}

// runLive is the socket source: plotters.RunLive owns the collector, the
// engine and — with -state-dir — the checkpoint manager between them,
// until ctx is cancelled.
func (o *options) runLive(ctx context.Context, engCfg plotters.EngineConfig, reg *plotters.Metrics, emit func(*plotters.WindowResult) error, stdout, stderr io.Writer) (tally, *checkpointReport, error) {
	rep, err := plotters.RunLive(ctx, plotters.LiveConfig{
		Addr:            o.listen,
		Engine:          engCfg,
		Sampler:         o.sampler,
		Batch:           o.inBatch,
		CheckpointEvery: o.ckptEvery,
		WALSyncEvery:    o.walSync,
		Metrics:         reg,
		Ready: func(addr net.Addr, recovered *plotters.CheckpointRecovery) {
			switch {
			case recovered == nil:
			case recovered.SnapshotLoaded:
				fmt.Fprintf(stderr, "recovered state from %s: snapshot of %s, %d WAL records replayed\n",
					o.stateDir, recovered.SnapshotCreated.Format(time.RFC3339), recovered.Replayed)
			case recovered.Replayed > 0:
				fmt.Fprintf(stderr, "recovered state from %s: no snapshot, %d WAL records replayed\n",
					o.stateDir, recovered.Replayed)
			default:
				fmt.Fprintf(stderr, "durable state in %s (cold start)\n", o.stateDir)
			}
			if recovered != nil && recovered.WALTorn {
				fmt.Fprintln(stderr, "note: WAL ended mid-frame (crash during append); torn tail truncated")
			}
			fmt.Fprintf(stderr, "listening for NetFlow v5/v9, IPFIX, and sFlow on %s (Ctrl-C to stop)\n", addr)
		},
	}, emit)
	if err != nil {
		return tally{}, nil, err
	}
	t := tally{records: rep.Records, late: rep.Dropped}
	o.closing(stdout, t, "\n%d records collected, %d windows detected", rep.Records, rep.Windows)
	if rep.SnapshotPath == "" {
		return t, nil, nil
	}
	fmt.Fprintf(stdout, "final checkpoint: %s (%d bytes)\n", rep.SnapshotPath, rep.SnapshotBytes)
	return t, &checkpointReport{
		StateDir:        o.stateDir,
		SnapshotPath:    rep.SnapshotPath,
		SnapshotBytes:   rep.SnapshotBytes,
		SnapshotLoaded:  rep.Recovered.SnapshotLoaded,
		ReplayedRecords: rep.Recovered.Replayed,
	}, nil
}

// runCoordinator is the run with no record source: it binds addr and runs
// the global phase over the shards' merged summaries of each window until
// ctx is cancelled, then force-seals any window still waiting on a shard.
func runCoordinator(ctx context.Context, cfg plotters.CoordinatorConfig, addr string, emit func(*plotters.WindowResult) error, stdout, stderr io.Writer) error {
	coord, err := plotters.NewCoordinator(cfg, emit)
	if err != nil {
		return err
	}
	defer coord.Close()
	bound, err := coord.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "coordinator: %d shards expected on %s (Ctrl-C to stop)\n", cfg.Shards, bound)
	<-ctx.Done()
	if err := coord.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%d windows detected\n", coord.Windows())
	for _, ss := range coord.ShardSeqs() {
		status := "never connected"
		if ss.Seen {
			status = fmt.Sprintf("connects=%d gaps=%d lost=%d dups=%d", ss.Connects, ss.Gaps, ss.Lost, ss.Dups)
		}
		fmt.Fprintf(stdout, "shard %d: %s\n", ss.Shard, status)
	}
	return coord.Close()
}

// windowPrinter is the streaming engines' sink: one line per sealed
// window. A window flushed before its scheduled end (shutdown, end of
// trace) is marked partial: its counts cover only what had elapsed.
func windowPrinter(w io.Writer, verbose bool) func(*plotters.WindowResult) error {
	return func(res *plotters.WindowResult) error {
		partial := ""
		if res.Partial {
			partial = " [partial]"
		}
		// Without the paper pipeline in the detector set there are no
		// per-stage survivor counts, only the detector verdicts below.
		fmt.Fprintf(w, "window %d %s%s: hosts=%d records=%d", res.Index, res.Window, partial, res.Hosts, res.Records)
		if det := res.Detection; det != nil {
			fmt.Fprintf(w, " reduction=%d vol=%d churn=%d suspects=%d\n",
				len(det.Reduction.Kept), len(det.Volume.Kept), len(det.Churn.Kept), len(det.Suspects))
			if verbose {
				printSuspects(w, det)
			}
		} else {
			fmt.Fprintln(w)
		}
		if len(res.Detections) > 1 || res.Detection == nil {
			parts := make([]string, 0, len(res.Detections))
			for _, dn := range res.Detections {
				parts = append(parts, fmt.Sprintf("%s=%d", dn.Detector, len(dn.Suspects)))
			}
			fmt.Fprintf(w, "  detectors: %s; union=%d intersection=%d\n",
				strings.Join(parts, " "),
				len(plotters.UnionSuspects(res.Detections)),
				len(plotters.IntersectSuspects(res.Detections)))
		}
		return nil
	}
}

// printSuspects lists a verdict's suspects with the features that
// convicted them.
func printSuspects(w io.Writer, res *plotters.Result) {
	feats := res.Analysis.Features()
	for _, h := range res.Suspects.Sorted() {
		f := feats[h]
		fmt.Fprintf(w, "  %-16s flows=%-6d avgBytes/flow=%-9.1f failedRate=%.2f newIPFraction=%.2f\n",
			h, f.Flows, f.AvgBytesPerFlow(), f.FailedRate(), f.NewPeerFraction())
	}
}

// batch is the engine of a run without -window: it collects the feed,
// has no windows to advance or flush, and detects once over all of it.
type batch struct{ records []plotters.Record }

func (b *batch) Add(r *plotters.Record) error {
	b.records = append(b.records, *r)
	return nil
}
func (b *batch) AdvanceTo(time.Time) error { return nil }
func (b *batch) Flush() error              { return nil }

// detect extracts the collected records' features once, runs the listed
// detectors over them and prints the batch sink: the paper pipeline's
// stage table, suspects and θ_hm clusters when it is listed, and the
// per-detector and ensemble counts when more than one detector is, or
// the paper pipeline is not.
func (b *batch) detect(w io.Writer, o *options, t tally, internal func(plotters.IP) bool, cfg plotters.Config, dets []plotters.Detector) error {
	sampled := ""
	if o.sampler.Enabled() {
		sampled = fmt.Sprintf(" (1-in-%d sampling dropped %d)", o.sampler.N, t.sampledOut)
	}
	fmt.Fprintf(w, "loaded %d flow records from %s%s\n", len(b.records), o.trace, sampled)
	analysis, err := plotters.NewAnalysis(b.records, internal, cfg)
	if err != nil {
		return err
	}
	detections := make([]*plotters.Detection, 0, len(dets))
	var res *plotters.Result
	for _, det := range dets {
		dn, err := det.Detect(analysis.Source())
		if err != nil {
			return err
		}
		detections = append(detections, dn)
		if dn.Paper != nil {
			res = dn.Paper
		}
	}
	if res != nil {
		printStages(w, res, cfg.Metrics, o.verbose)
	}
	if len(detections) > 1 || res == nil {
		printEnsemble(w, detections, o.verbose)
	}
	if res != nil && len(res.HM.Clusters) > 0 {
		fmt.Fprintf(w, "\nθ_hm clusters:\n")
		clusters := append([]plotters.HMCluster(nil), res.HM.Clusters...)
		sort.Slice(clusters, func(i, j int) bool { return clusters[i].Diameter < clusters[j].Diameter })
		for _, c := range clusters {
			marker := " "
			if c.Kept {
				marker = "*"
			}
			spread := fmt.Sprintf("%.4f", c.Diameter)
			if c.Diameter == math.MaxFloat64 {
				// Clamped sentinel: the calibrated cut fell below this
				// cluster's true spread (see the pipeline's overcut gauge).
				spread = "overcut"
			}
			fmt.Fprintf(w, "  %s size=%-4d spread=%s\n", marker, len(c.Hosts), spread)
		}
		fmt.Fprintf(w, "(* = kept by τ_hm)\n")
	}
	return nil
}

// printStages prints the paper pipeline's stage table, the per-stage host
// sets with verbose, and the suspects.
func printStages(w io.Writer, res *plotters.Result, reg *plotters.Metrics, verbose bool) {
	fmt.Fprintf(w, "\nstage           hosts  threshold\n")
	fmt.Fprintf(w, "analyzed      %7d\n", len(res.Analysis.Hosts()))
	fmt.Fprintf(w, "reduction     %7d  failed-rate > %.4f\n", len(res.Reduction.Kept), res.Reduction.Threshold)
	fmt.Fprintf(w, "θ_vol         %7d  avg bytes/flow < %.1f\n", len(res.Volume.Kept), res.Volume.Threshold)
	fmt.Fprintf(w, "θ_churn       %7d  new-IP fraction < %.4f\n", len(res.Churn.Kept), res.Churn.Threshold)
	fmt.Fprintf(w, "θ_hm          %7d  cluster spread ≤ %.4f (%d clusters, %d hosts clustered, %d skipped)\n",
		len(res.Suspects), res.HM.Threshold, len(res.HM.Clusters), res.HM.Clustered, res.HM.Skipped)
	if reg != nil {
		if pr, ok := plotters.PruneSummary(reg.TakeSnapshot()); ok {
			fmt.Fprintln(w, pr)
		}
	}

	if verbose {
		for _, s := range []struct {
			name string
			set  plotters.HostSet
		}{{"S (after reduction)", res.Reduction.Kept}, {"S_vol", res.Volume.Kept}, {"S_churn", res.Churn.Kept}} {
			hosts := s.set.Sorted()
			strs := make([]string, len(hosts))
			for i, h := range hosts {
				strs[i] = h.String()
			}
			fmt.Fprintf(w, "\n%s (%d): %s\n", s.name, len(hosts), strings.Join(strs, " "))
		}
	}

	fmt.Fprintf(w, "\nsuspected plotters (%d):\n", len(res.Suspects))
	printSuspects(w, res)
}

// printEnsemble prints a batch run's per-detector and ensemble counts.
func printEnsemble(w io.Writer, detections []*plotters.Detection, verbose bool) {
	fmt.Fprintf(w, "\ndetector ensemble:\n")
	for _, dn := range detections {
		fmt.Fprintf(w, "  %-14s suspects=%d", dn.Detector, len(dn.Suspects))
		if rep := dn.Community; rep != nil {
			fmt.Fprintf(w, "  graph: hosts=%d edges=%d communities=%d flagged=%d",
				rep.GraphHosts, rep.GraphEdges, len(rep.Communities), len(rep.Flagged))
		}
		fmt.Fprintln(w)
		if verbose {
			for _, h := range dn.Suspects.Sorted() {
				fmt.Fprintf(w, "    %s\n", h)
			}
		}
	}
	fmt.Fprintf(w, "  union=%d intersection=%d\n",
		len(plotters.UnionSuspects(detections)), len(plotters.IntersectSuspects(detections)))
}

// runReport is the JSON document -metrics emits: trace metadata, the full
// metrics snapshot (stage durations, survivor-count gauges, I/O counters)
// and, when θ_hm was wide enough to prune, its kernel's pair accounting.
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

// checkpointReport is a -state-dir run's durable-state outcome: what was
// recovered on the way in, the final checkpoint committed on the way out.
type checkpointReport struct {
	StateDir        string `json:"state_dir"`
	SnapshotPath    string `json:"snapshot_path"`
	SnapshotBytes   int64  `json:"snapshot_bytes"`
	SnapshotLoaded  bool   `json:"snapshot_loaded"`
	ReplayedRecords int    `json:"replayed_records"`
}

func writeReport(path, trace, format string, records int, elapsed time.Duration, reg *plotters.Metrics, ckpt *checkpointReport) error {
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
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("writing run report: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o666)
}
