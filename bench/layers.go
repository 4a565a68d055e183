package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/collector"
	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/dist"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/ingest"
	"plotters/internal/metrics"
	"plotters/internal/synth"
)

const (
	// probeSpin is the least time an in-memory probe loops for, so a
	// fast layer is timed over enough work to stand clear of the clock.
	probeSpin = 100 * time.Millisecond
	// probeRecords caps the corpus of the per-record probes; a prefix
	// this long times every layer over hundreds of milliseconds of work.
	probeRecords = 300000
	// probeOtherFormats caps the IPFIX and sFlow corpus: their datagrams
	// are several times a v5 datagram's size.
	probeOtherFormats = 60000
	// probeWALTail is how many records recovery replays from the WAL.
	probeWALTail = 50000
)

// noopDetector lets a probe drive the engine's windowing with no
// detection behind it.
type noopDetector struct{}

func (noopDetector) Name() string { return "noop" }
func (noopDetector) Detect(flow.FeatureSource) (*core.Detection, error) {
	return &core.Detection{Detector: "noop", Suspects: core.HostSet{}}, nil
}

// stage returns one of the program's stage timers from a registry
// snapshot, zero if it never ran.
func stage(snap metrics.Snapshot, name string) metrics.StageSnapshot {
	for _, s := range snap.Stages {
		if s.Name == name {
			return s
		}
	}
	return metrics.StageSnapshot{}
}

func stageTotal(snap metrics.Snapshot, name string) time.Duration {
	return time.Duration(stage(snap, name).TotalSeconds * float64(time.Second))
}

// probe calls each layer's public functions in isolation over the
// workload's own records. Everything runs on one goroutine with nothing
// else going on, so a cost is what the layer takes when it has the
// machine to itself. Per-record layers run over a prefix of the pass —
// contiguous, so repeat contacts stay as frequent as in the workload —
// and per-window layers over the whole pass as one window.
type probe struct {
	m       map[string]float64
	all     []flow.Record
	records []flow.Record // the per-record prefix of all
	dir     string        // scratch, on the benchmark's state directory
}

func probeLayers(all []flow.Record, outDir string) (map[string]float64, error) {
	p := &probe{
		m:       map[string]float64{},
		all:     all,
		records: all[:min(len(all), probeRecords)],
		dir:     filepath.Join(outDir, fmt.Sprintf("probe-%d", os.Getpid())),
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	for _, layer := range []func() error{p.collector, p.checkpoint, p.flowAndEngine, p.detectors, p.flowio} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// perRecord books a pass's wall time, in nanoseconds per record.
func perRecord(ps pass) float64 { return float64(ps.wall) / float64(ps.records) }

// encodeAll packs records into ≤30-record export datagrams.
func encodeAll(records []flow.Record, appendPkt func([]byte, []flow.Record, uint32) ([]byte, error)) ([][]byte, error) {
	var out [][]byte
	var seq uint32
	for len(records) > 0 {
		n := min(len(records), collector.V5MaxRecords)
		pkt, err := appendPkt(nil, records[:n], seq)
		if err != nil {
			return nil, err
		}
		out = append(out, pkt)
		seq += uint32(n)
		records = records[n:]
	}
	return out, nil
}

// decodeSweeps encodes records with appendPkt and then decodes every
// datagram into one reused arena, sweep after sweep until probeSpin has
// passed, handing each decoded batch to then. It returns nanoseconds
// per record.
func decodeSweeps(records []flow.Record, arena *ingest.RecordArena,
	appendPkt func([]byte, []flow.Record, uint32) ([]byte, error),
	decode func(pkt []byte, dst []flow.Record) ([]flow.Record, error),
	then func([]flow.Record)) (float64, error) {
	pkts, err := encodeAll(records, appendPkt)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	sweeps := 0
	for ; sweeps == 0 || time.Since(start) < probeSpin; sweeps++ {
		for _, pkt := range pkts {
			recs, err := decode(pkt, arena.Take())
			if err != nil {
				return 0, err
			}
			if then != nil {
				then(recs)
			}
			arena.Reset(recs)
		}
	}
	return float64(time.Since(start)) / float64(sweeps*len(records)), nil
}

// collector: the three decoders, the sampler and the arena on their
// own, then everything ahead of the engine over a real socket.
func (p *probe) collector() (err error) {
	var arena ingest.RecordArena
	v5 := func(pkt []byte, dst []flow.Record) ([]flow.Record, error) {
		_, recs, err := collector.DecodeV5(pkt, dst)
		return recs, err
	}
	if p.m["collector.decode_ns_per_record"], err = decodeSweeps(p.records, &arena, collector.AppendV5, v5, nil); err != nil {
		return err
	}
	sampler := ingest.Sampler{N: 4}
	sampled, err := decodeSweeps(p.records, &arena, collector.AppendV5, v5, func(recs []flow.Record) { sampler.Filter(recs) })
	if err != nil {
		return err
	}
	p.m["ingest.sample_ns_per_record"] = max(0, sampled-p.m["collector.decode_ns_per_record"])
	p.m["ingest.arena_cap_records"] = float64(arena.Cap())

	few := p.records[:min(len(p.records), probeOtherFormats)]
	templates := collector.NewTemplateCache()
	p.m["collector.decode_ipfix_ns_per_record"], err = decodeSweeps(few, &arena, collector.AppendIPFIX,
		func(pkt []byte, dst []flow.Record) ([]flow.Record, error) {
			_, recs, _, err := templates.DecodeIPFIX("probe", pkt, dst)
			return recs, err
		}, nil)
	if err != nil {
		return err
	}
	arrival := p.records[0].Start
	p.m["collector.decode_sflow_ns_per_record"], err = decodeSweeps(few, &arena, collector.AppendSFlow,
		func(pkt []byte, dst []flow.Record) ([]flow.Record, error) {
			_, recs, _, err := collector.DecodeSFlow(pkt, arrival, dst)
			return recs, err
		}, nil)
	if err != nil {
		return err
	}
	return p.socket()
}

// socket sends the prefix once through a real collector whose Handler
// only returns the credit: loopback UDP, recvmmsg, the queue, the
// decode worker — everything ahead of the engine.
func (p *probe) socket() error {
	datagrams, err := encodeAll(p.records, collector.AppendV5)
	if err != nil {
		return err
	}
	loop := newGate(len(datagrams))
	defer loop.timer.Stop()
	col, err := collector.Listen(collector.Config{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Handler: func([]flow.Record) { loop.handled() },
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- col.Run(ctx) }()
	stop := func() error { cancel(); return <-done }
	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		return errors.Join(err, stop())
	}
	defer conn.Close()
	loop.open()
	m0 := readMeter()
	for i, pkt := range datagrams {
		if err := loop.before(i); err != nil {
			return errors.Join(err, stop())
		}
		if _, err := conn.Write(pkt); err != nil {
			return errors.Join(err, stop())
		}
	}
	if err := loop.drain(); err != nil {
		return errors.Join(err, stop())
	}
	ps := passBetween(m0, readMeter(), len(p.records))
	p.m["collector.recv_decode_ns_per_record"] = perRecord(ps)
	p.m["collector.allocs_per_record"] = float64(ps.mallocs) / float64(ps.records)
	return stop()
}

// checkpoint measures the durable-state layer on the benchmark's state
// directory: appends under live-v5's sync policy (none inside a pass),
// the cost of one sync of 256 records, a snapshot, and recovery from
// that snapshot plus a WAL tail.
func (p *probe) checkpoint() error {
	records, n := p.records, len(p.records)
	wal, _, err := checkpoint.OpenWAL(filepath.Join(p.dir, "append.log"), walSyncEvery, nil)
	if err != nil {
		return err
	}
	writes0, counted := writeSyscalls()
	t0 := time.Now()
	for i := range records {
		if _, err := wal.Append(&records[i]); err != nil {
			wal.Close()
			return err
		}
	}
	p.m["checkpoint.wal_append_ns_per_record"] = float64(time.Since(t0)) / float64(n)
	if writes1, ok := writeSyscalls(); ok && counted {
		p.m["checkpoint.wal_writes_per_record"] = float64(writes1-writes0) / float64(n)
	}
	p.m["checkpoint.wal_bytes_per_record"] = float64(wal.Size()) / float64(n)
	if err := wal.Close(); err != nil {
		return err
	}

	// Sync cost on its own: batches of 256 appends — plotfind's default
	// cadence — each followed by one timed Sync.
	wal, _, err = checkpoint.OpenWAL(filepath.Join(p.dir, "sync.log"), walSyncEvery, nil)
	if err != nil {
		return err
	}
	var syncs []time.Duration
	for i := 0; i+256 <= n && len(syncs) < 64; i += 256 {
		for k := i; k < i+256; k++ {
			if _, err := wal.Append(&records[k]); err != nil {
				wal.Close()
				return err
			}
		}
		t0 := time.Now()
		if err := wal.Sync(); err != nil {
			wal.Close()
			return err
		}
		syncs = append(syncs, time.Since(t0))
	}
	p.m["checkpoint.wal_sync_ms_p50"] = median(durationsMS(syncs))
	if err := wal.Close(); err != nil {
		return err
	}

	// Snapshot and recovery: an engine holding everything but the tail
	// is checkpointed; the tail then goes to the WAL only, and a second
	// engine recovers both.
	head := max(0, n-probeWALTail)
	newEngine := func() (*engine.WindowedDetector, *checkpoint.Manager, error) {
		eng, err := engine.New(engine.Config{
			Window: 365 * 24 * time.Hour, Origin: records[0].Start, MaxSkew: daySkew, DropLate: true,
			Internal: synth.IsInternal, Core: core.DefaultConfig(), StateDir: filepath.Join(p.dir, "state"),
			Detectors: []core.Detector{noopDetector{}},
		}, func(*engine.Result) error { return nil })
		if err != nil {
			return nil, nil, err
		}
		mgr, err := checkpoint.NewManager(checkpoint.Config{SyncEvery: walSyncEvery}, eng)
		return eng, mgr, err
	}
	eng, mgr, err := newEngine()
	if err != nil {
		return err
	}
	defer func() { mgr.Close() }() // whichever manager is open when this returns
	if _, err := mgr.Recover(); err != nil {
		return err
	}
	for i := 0; i < head; i++ {
		if err := mgr.Add(&records[i]); err != nil {
			return err
		}
	}
	t0 = time.Now()
	if err := mgr.Checkpoint(); err != nil {
		return err
	}
	p.m["checkpoint.snapshot_ms"] = ms(time.Since(t0))
	if st, err := os.Stat(mgr.SnapshotPath()); err == nil && eng.Store().Hosts() > 0 {
		p.m["checkpoint.snapshot_bytes_per_host"] = float64(st.Size()) / float64(eng.Store().Hosts())
	}
	for i := head; i < n; i++ {
		if err := mgr.Add(&records[i]); err != nil {
			return err
		}
	}
	if err := mgr.Close(); err != nil {
		return err
	}
	if _, mgr, err = newEngine(); err != nil {
		return err
	}
	t0 = time.Now()
	info, err := mgr.Recover()
	if err != nil {
		return err
	}
	p.m["checkpoint.recover_ms"] = ms(time.Since(t0))
	if info.Replayed != n-head {
		return fmt.Errorf("recovery probe replayed %d of %d WAL records", info.Replayed, n-head)
	}
	return mgr.Close()
}

// addAll feeds every record to a freshly built sink, twice, and returns
// the second round's costs: the first sizes the heap and warms the
// caches, as the workloads' warm-up pass does.
func addAll(records []flow.Record, fresh func() (func(*flow.Record) error, error), finish func() error) (pass, error) {
	var ps pass
	for round := 0; round < 2; round++ {
		add, err := fresh()
		if err != nil {
			return pass{}, err
		}
		m0 := readMeter()
		for i := range records {
			if err := add(&records[i]); err != nil {
				return pass{}, err
			}
		}
		if err := finish(); err != nil {
			return pass{}, err
		}
		ps = passBetween(m0, readMeter(), len(records))
	}
	return ps, nil
}

// flowAndEngine times the streaming store on its own and then the same
// adds through an engine with no detection behind it: what the engine
// run has left after its seals and the store's own cost is the engine's
// per-record bookkeeping.
func (p *probe) flowAndEngine() error {
	records, n := p.records, len(p.records)
	opts := flow.FeatureOptions{Hosts: synth.IsInternal, NewPeerGrace: core.DefaultConfig().NewPeerGrace}
	var store *flow.ShardedExtractor
	var reg *metrics.Registry
	var heap0 uint64
	extract, err := addAll(records, func() (func(*flow.Record) error, error) {
		store, reg = nil, metrics.New()
		heap0 = liveHeap()
		store = flow.NewShardedExtractorSkew(opts, 1, daySkew).Metrics(reg)
		return store.Add, nil
	}, func() error { store.Drain(); return nil })
	if err != nil {
		return err
	}
	p.m["flow.extract_ns_per_record"] = perRecord(extract)
	p.m["flow.extract_allocs_per_record"] = float64(extract.mallocs) / float64(n)
	p.m["flow.extract_bytes_per_record"] = float64(extract.bytes) / float64(n)
	p.m["flow.reorder_high_water"] = float64(reg.TakeSnapshot().Gauges["stream/pending_highwater"])
	if hosts := store.Hosts(); hosts > 0 {
		p.m["flow.state_bytes_per_host"] = float64(liveHeap()-heap0) / float64(hosts)
	}
	t0 := time.Now()
	pane := store.TakePane(flow.Window{From: records[0].Start, To: records[n-1].Start.Add(time.Second)})
	p.m["flow.take_pane_ms"] = ms(time.Since(t0))
	runtime.KeepAlive(pane)

	var eng *engine.WindowedDetector
	through, err := addAll(records, func() (func(*flow.Record) error, error) {
		reg = metrics.New() // only to read the seal timer
		ecfg := engine.Config{
			Window: dayWindow, Origin: records[0].Start.Truncate(dayWindow), MaxSkew: daySkew, DropLate: true,
			Shards: 1, Internal: synth.IsInternal, Core: core.DefaultConfig(), Detectors: []core.Detector{noopDetector{}},
		}
		ecfg.Core.Metrics = reg
		var err error
		eng, err = engine.New(ecfg, func(*engine.Result) error { return nil })
		return eng.Add, err
	}, func() error { return eng.AdvanceTo(records[n-1].Start.Add(dayWindow)) })
	if err != nil {
		return err
	}
	seal := stage(reg.TakeSnapshot(), "engine/seal")
	sealing := time.Duration(seal.TotalSeconds * float64(time.Second))
	p.m["engine.add_overhead_ns_per_record"] = max(0, float64(through.wall-sealing-extract.wall)/float64(n))
	p.m["engine.seal_ms_mean"] = seal.MeanSeconds * 1e3
	return nil
}

// detectors runs the per-window layers over the whole pass as one
// window: batch extraction, the paper pipeline as a monolith and as
// local + global pass, the summary codec between them, and the
// community detector.
func (p *probe) detectors() error {
	m := p.m
	opts := flow.FeatureOptions{Hosts: synth.IsInternal, NewPeerGrace: core.DefaultConfig().NewPeerGrace}
	t0 := time.Now()
	src := flow.ExtractFeatureSet(p.all, opts, flow.Window{})
	m["flow.batch_extract_ns_per_record"] = float64(time.Since(t0)) / float64(len(p.all))

	reg := metrics.New()
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	analysis, err := core.NewAnalysisFromSource(src, cfg)
	if err != nil {
		return err
	}
	if _, err := analysis.FindPlotters(); err != nil {
		return err
	}
	snap := reg.TakeSnapshot()
	m["core.findplotters_ms"] = ms(stageTotal(snap, "pipeline"))
	m["core.hm_ms"] = ms(stageTotal(snap, "pipeline/hm"))
	m["core.filters_ms"] = ms(stageTotal(snap, "pipeline/reduction") + stageTotal(snap, "pipeline/vol") + stageTotal(snap, "pipeline/churn"))
	hmHosts := float64(snap.Gauges["pipeline/hm/clustered"])
	m["core.hm_hosts"] = hmHosts
	m["distmatrix.compute_ms"] = ms(stageTotal(snap, "pipeline/hm/matrix"))
	m["distmatrix.pairs"] = float64(snap.Counters["distmatrix/pairs"])
	if total := hmHosts * (hmHosts - 1) / 2; total > 0 {
		m["distmatrix.exact_pair_ratio"] = m["distmatrix.pairs"] / total
	}
	m["cluster.agglomerate_cut_ms"] = ms(stageTotal(snap, "pipeline/hm/cluster"))

	cfg.Metrics = nil
	t0 = time.Now()
	sum, err := core.LocalPass(src, cfg, 0, 1)
	if err != nil {
		return err
	}
	m["core.local_pass_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := core.GlobalPass([]*core.ShardSummary{sum}, cfg); err != nil {
		return err
	}
	m["core.global_pass_ms"] = ms(time.Since(t0))

	t0 = time.Now()
	frame := dist.EncodeSummary(0, sum)
	m["dist.summary_encode_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, _, err := dist.DecodeSummary(frame); err != nil {
		return err
	}
	m["dist.summary_decode_ms"] = ms(time.Since(t0))
	if len(sum.Hosts) > 0 {
		m["dist.summary_bytes_per_host"] = float64(len(frame)) / float64(len(sum.Hosts))
	}

	reg = metrics.New()
	ccfg := community.DefaultConfig()
	ccfg.Metrics = reg
	cd, err := community.New(ccfg)
	if err != nil {
		return err
	}
	if _, err := cd.Detect(src); err != nil {
		return err
	}
	snap = reg.TakeSnapshot()
	m["community.build_graph_ms"] = ms(stageTotal(snap, "community/build"))
	m["community.propagate_ms"] = ms(stageTotal(snap, "community/propagate"))
	m["community.edges"] = float64(snap.Gauges["community/graph_edges"])
	return nil
}

// flowio reads the prefix back from an in-memory binary trace.
func (p *probe) flowio() error {
	var trace bytes.Buffer
	if err := flowio.WriteAllBinary(&trace, p.records); err != nil {
		return err
	}
	m0 := readMeter()
	br := flowio.NewBinaryReader(bytes.NewReader(trace.Bytes()))
	read := 0
	for {
		_, err := br.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		read++
	}
	ps := passBetween(m0, readMeter(), read)
	if read != len(p.records) {
		return fmt.Errorf("flowio probe read %d of %d records", read, len(p.records))
	}
	p.m["flowio.read_ns_per_record"] = perRecord(ps)
	p.m["flowio.read_allocs_per_record"] = float64(ps.mallocs) / float64(ps.records)
	return nil
}
