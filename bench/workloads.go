package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/collector"
	"plotters/internal/core"
	"plotters/internal/dist"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/metrics"
	"plotters/internal/synth"
)

// env is what every workload is built from.
type env struct {
	seed   int64
	sz     size
	outDir string // scratch: state dirs, the batch trace, span files
}

// workload is one named input and call path. setup builds the input
// and the reference from the seed; run repeats the input through the
// real path for about budget, after one untimed warm-up pass.
type workload interface {
	setup() error
	// passRecords are the records one pass hands in, in start order;
	// the isolated layer probes run on them too.
	passRecords() []flow.Record
	// refs are the pass-relative windows every pass must reproduce.
	refs() []windowRef
	// stateBytesPerHost is the untimed resident-state measurement.
	stateBytesPerHost() (float64, error)
	run(budget time.Duration, tr *tracer, reg *metrics.Registry) (*result, error)
}

var workloadNames = []string{"live-v5", "detect-wide", "dist-2shard", "batch-day"}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "live-v5":
		return &liveV5{dayWorkload{env: e}}, nil
	case "detect-wide":
		return &detectWide{env: e}, nil
	case "dist-2shard":
		return &dist2Shard{dayWorkload{env: e}}, nil
	case "batch-day":
		return &batchDay{dayWorkload: dayWorkload{env: e}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// result is what one run of a workload leaves behind.
type result struct {
	stride int // absolute window slots per pass
	passes []pass
	// passesRun counts every pass fed, the warm-up included; all of them
	// are checked against the reference.
	passesRun int
	// drops counts records the program itself reported losing.
	drops int

	mu     sync.Mutex // emit may run on the program's goroutines
	got    map[int]windowRef
	dupes  int
	sendAt map[int]time.Time // absolute window → hand-off of its closing record
	emitAt map[int]time.Time // absolute window → entry of the emit callback

	// A traced run's observations, taken when the last timed pass ends
	// so the closing flush is in neither: the program's own instruments
	// and what the workload's glue counted.
	snap  metrics.Snapshot
	layer map[string]float64
}

func newResult(stride int) *result {
	return &result{
		stride: stride,
		got:    map[int]windowRef{},
		sendAt: map[int]time.Time{},
		emitAt: map[int]time.Time{},
		layer:  map[string]float64{},
	}
}

// passClock decides how many passes a run makes: the warm-up, one timed
// pass, and then more until the budget that started with the first
// timed pass is spent.
type passClock struct {
	budget time.Duration
	start  time.Time
}

func (c *passClock) more(p int) bool {
	if p == 1 {
		c.start = time.Now()
	}
	return p < 2 || time.Since(c.start) < c.budget
}

// passDone books pass p, measured between the two meter readings. Pass
// 0 is the warm-up: checked like any other, never timed.
func (r *result) passDone(p int, m0, m1 meter, records int) {
	r.passesRun++
	if p > 0 {
		r.passes = append(r.passes, passBetween(m0, m1, records))
	}
}

// rates is records per second, one value per timed pass.
func (r *result) rates() []float64 {
	out := make([]float64, len(r.passes))
	for i, p := range r.passes {
		out[i] = float64(p.records) / p.wall.Seconds()
	}
	return out
}

// timedWall is the wall clock the timed passes took together.
func (r *result) timedWall() time.Duration {
	var wall time.Duration
	for _, p := range r.passes {
		wall += p.wall
	}
	return wall
}

// endOfPasses freezes what a traced run analyses.
func (r *result) endOfPasses(tr *tracer, reg *metrics.Registry) {
	tr.endOfPasses()
	r.snap = reg.TakeSnapshot()
}

// emitted is the body of every workload's emit callback.
func (r *result) emitted(res *engine.Result) {
	now := time.Now()
	ref := refOf(res.Index%r.stride, res.Hosts, res.Records, res.Detections)
	r.mu.Lock()
	if _, dup := r.got[res.Index]; dup {
		r.dupes++
	}
	r.got[res.Index] = ref
	r.emitAt[res.Index] = now
	r.mu.Unlock()
}

// handedOff notes that the record which proves the window complete is
// being handed to the program now.
func (r *result) handedOff(window int) {
	now := time.Now()
	r.mu.Lock()
	r.sendAt[window] = now
	r.mu.Unlock()
}

// closeLatencies returns, for every window whose closing record was
// handed over in a timed pass, the time from that hand-off to the emit
// callback.
func (r *result) closeLatencies() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for idx, sent := range r.sendAt {
		if at, ok := r.emitAt[idx]; ok {
			out = append(out, at.Sub(sent))
		}
	}
	return out
}

// check compares every pass's windows with the reference. attempted
// counts the records handed in plus the windows due; failed counts
// windows that are missing, different or unexpected, plus records that
// ended up in no emitted window.
func (r *result) check(refs []windowRef, passRecords int) (attempted, failed int, problems []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	note := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	attempted = r.passesRun * (passRecords + len(refs))
	failed = r.drops + r.dupes
	if r.drops > 0 {
		note("the program reported %d dropped records", r.drops)
	}
	if r.dupes > 0 {
		note("%d windows were emitted twice", r.dupes)
	}
	seen := 0
	for p := 0; p < r.passesRun; p++ {
		for _, want := range refs {
			got, ok := r.got[p*r.stride+want.Index]
			if !ok {
				failed += 1 + want.Records
				note("pass %d window %d never emitted", p, want.Index)
				continue
			}
			seen++
			if !got.equal(want) {
				failed++
				if got.Records < want.Records {
					failed += want.Records - got.Records
				}
				note("pass %d window %d: got %+v, want %+v", p, want.Index, got, want)
			}
		}
	}
	if extra := len(r.got) - seen; extra > 0 {
		failed += extra
		note("%d windows emitted that the reference does not have", extra)
	}
	return attempted, failed, problems
}

// perHost is the end of every resident-state measurement.
func perHost(before, after uint64, hosts int) (float64, error) {
	if hosts == 0 || after <= before {
		return 0, fmt.Errorf("state measurement saw %d hosts and a heap delta of %d", hosts, int64(after)-int64(before))
	}
	return float64(after-before) / float64(hosts), nil
}

// engineStateBytes feeds one window into a fresh engine and returns the
// live heap it holds per host.
func engineStateBytes(cfg engine.Config, feed func(add func(*flow.Record) error) error) (float64, error) {
	eng, err := engine.New(cfg, func(*engine.Result) error { return nil })
	if err != nil {
		return 0, err
	}
	before := liveHeap()
	if err := feed(eng.Add); err != nil {
		return 0, err
	}
	eng.Store().Drain()
	return perHost(before, liveHeap(), eng.Store().Hosts())
}

// ---- the day-based workloads -----------------------------------------

// dayWorkload is what live-v5, dist-2shard and batch-day share: the
// quantised day and its reference windows.
type dayWorkload struct {
	env
	in  *dayInput
	ref []windowRef
}

func (d *dayWorkload) passRecords() []flow.Record { return d.in.records }
func (d *dayWorkload) refs() []windowRef          { return d.ref }

// setup is the streaming workloads' set-up: the day, and each hour's
// batch reference.
func (d *dayWorkload) setup() (err error) {
	if d.in, err = synthDay(d.seed, d.sz, d.outDir); err != nil {
		return err
	}
	d.ref, err = tumblingRefs(d.in.records, d.in.window.From, dayWindow, d.in.windows(), synth.IsInternal, true)
	return err
}

// engineConfig is the window geometry of the day-based streaming
// workloads, as `plotfind -window 1h -skew 5m -origin <day start>
// -detectors findplotters,community` would build it.
func (d *dayWorkload) engineConfig(cfg core.Config, dets []core.Detector) engine.Config {
	return engine.Config{
		Window:    dayWindow,
		Origin:    d.in.window.From,
		MaxSkew:   daySkew,
		DropLate:  true,
		Internal:  synth.IsInternal,
		Core:      cfg,
		Detectors: dets,
	}
}

// feedFirstWindow adds the records of the day's first window to add —
// the state an engine holds just before its first seal.
func (d *dayWorkload) feedFirstWindow(add func(*flow.Record) error) error {
	end := d.in.window.From.Add(dayWindow)
	for i := range d.in.records {
		if !d.in.records[i].Start.Before(end) {
			break
		}
		if err := add(&d.in.records[i]); err != nil {
			return err
		}
	}
	return nil
}

// lastWindowEnd is where the final pass's day ends: the punctuation
// that closes its last window once the feed stops.
func (d *dayWorkload) lastWindowEnd(passes int) time.Time {
	return d.in.window.To.Add(time.Duration(passes-1) * dayShift)
}

// closers stamps window hand-offs as a day pass is fed: trig[w] is the
// index of the record that proves window w complete, or the record
// count when only the next pass's first record does.
type closers struct {
	res  *result
	trig []int
	n    int // records per pass
	pass int
	w    int // next window to close in this pass
}

func (d *dayWorkload) closers(res *result) *closers {
	trig := triggers(d.in.records, d.in.window.From, dayWindow, daySkew, d.in.windows())
	return &closers{res: res, trig: trig, n: len(d.in.records)}
}

// begin starts pass p; call it just before the pass's first record is
// handed over. The windows the previous day left open close on that
// record: it is hours past their end.
func (c *closers) begin(p int) {
	c.pass, c.w = p, 0
	if p == 0 {
		return
	}
	for w, t := range c.trig {
		if t == c.n {
			c.res.handedOff((p-1)*c.res.stride + w)
		}
	}
}

// before is called ahead of handing over the records up to (not
// including) index end. The warm-up pass's windows are not timed.
func (c *closers) before(end int) {
	for c.w < len(c.trig) && c.trig[c.w] < end && c.trig[c.w] < c.n {
		if c.pass > 0 {
			c.res.handedOff(c.pass*c.res.stride + c.w)
		}
		c.w++
	}
}

// ---- live-v5 ---------------------------------------------------------

// inflight bounds the datagrams between the sender and the end of the
// Handler. 64 full v5 datagrams fit the default socket buffer with room
// to spare, so the kernel never drops and every loss is the program's.
// Credit comes back a burst at a time: the sender writes 32 datagrams
// back to back, as an exporter flushing its cache does, and sleeps until
// the Handler has worked off 32 more. A credit per datagram would make
// the sender, the socket reader and the worker each sleep and wake once
// per datagram — 40,000 futex round trips a second on two virtual CPUs,
// whose cost follows the host and not the program.
const (
	inflight = 64
	burst    = 32
)

// creditTimeout is how long the sender waits for a credit before it
// concludes a datagram was lost on the way to the Handler.
const creditTimeout = 20 * time.Second

// gate is the closed loop between one sender and a collector Handler:
// the sender takes a credit per burst and blocks — never spins — when
// none is left; the Handler gives one back per burst handled.
type gate struct {
	credits chan struct{}
	timer   *time.Timer
	perPass int // datagrams sent between open and drain
	done    int // datagrams handled since open; the Handler's own
	// timeBlocked makes take account the time it waits in blocked.
	timeBlocked bool
	blocked     time.Duration
}

func newGate(perPass int) *gate {
	return &gate{credits: make(chan struct{}, inflight/burst), timer: time.NewTimer(creditTimeout), perPass: perPass}
}

// open grants the full window of credits; the gate must be empty.
func (g *gate) open() {
	for k := 0; k < inflight/burst; k++ {
		g.credits <- struct{}{}
	}
}

// handled is the Handler's side, called once per datagram: a burst's
// credit goes back when its last datagram is done, and the pass's short
// last burst when the pass is.
func (g *gate) handled() {
	g.done++
	if g.done%burst == 0 || g.done == g.perPass {
		g.credits <- struct{}{}
	}
	if g.done == g.perPass {
		g.done = 0
	}
}

// before is the sender's side, called ahead of writing datagram i of
// the pass: the first of a burst waits for the burst's credit.
func (g *gate) before(i int) error {
	if i%burst != 0 {
		return nil
	}
	return g.take()
}

func (g *gate) take() error {
	select {
	case <-g.credits:
		return nil
	default:
	}
	var began time.Time
	if g.timeBlocked {
		began = time.Now()
	}
	if !g.timer.Stop() {
		select {
		case <-g.timer.C:
		default:
		}
	}
	g.timer.Reset(creditTimeout)
	select {
	case <-g.credits:
	case <-g.timer.C:
		return fmt.Errorf("no credit for %v: a datagram never reached the Handler", creditTimeout)
	}
	if g.timeBlocked {
		g.blocked += time.Since(began)
	}
	return nil
}

// drain takes every credit back: when it returns, the Handler has
// finished everything sent.
func (g *gate) drain() error {
	g.timeBlocked = false
	for k := 0; k < inflight/burst; k++ {
		if err := g.take(); err != nil {
			return err
		}
	}
	return nil
}

// walSyncEvery is the one knob live-v5 turns away from plotfind's
// defaults (-wal-sync-every 256): the WAL is synced only by the
// checkpoint between passes, never inside a timed pass. An fsync on the
// checkout's disk takes 0.25–0.6 ms depending on the hour, a quarter of
// a pass at 256 and nothing the program can change; on the tmpfs state
// directory the issue asked for — which the benchmark may not write to —
// it would have cost nothing either. What stays in the timed section is
// the WAL's own work: framing, CRC and one write(2) per record.
// checkpoint.wal_sync_ms_p50 reports the disk for information.
const walSyncEvery = 1 << 30

type liveV5 struct{ dayWorkload }

func (l *liveV5) stateBytesPerHost() (float64, error) {
	return engineStateBytes(l.engineConfig(core.DefaultConfig(), nil), l.feedFirstWindow)
}

func (l *liveV5) run(budget time.Duration, tr *tracer, reg *metrics.Registry) (*result, error) {
	in := l.in
	res := newResult(int(dayShift / dayWindow))
	stateDir := filepath.Join(l.outDir, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	dets, err := newDetectors(cfg, true)
	if err != nil {
		return nil, err
	}
	at := &scope{parent: noSpan} // owned by the collector's one worker
	ecfg := l.engineConfig(cfg, traceDetectors(dets, tr, at, false))
	ecfg.StateDir = stateDir
	eng, err := engine.New(ecfg, func(r *engine.Result) error {
		id := tr.begin("emit", at.parent, at.group)
		res.emitted(r)
		tr.end(id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The shipped durable configuration (-state-dir, -checkpoint-every
	// 5m) but for the sync cadence: see walSyncEvery.
	mgr, err := checkpoint.NewManager(checkpoint.Config{Interval: 5 * time.Minute, SyncEvery: walSyncEvery, Metrics: reg}, eng)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()

	loop := newGate(len(in.datagrams))
	defer loop.timer.Stop()
	// The pass the Handler's spans hang under. Written between passes,
	// when the Handler is idle, but the only thing that orders that write
	// before the Handler's next read is a datagram, which the memory
	// model does not see — hence atomics.
	var passSpan, passGroup atomic.Int32
	passSpan.Store(noSpan)
	var ingestErr error // written by the Handler, read after quiescence
	col, err := collector.Listen(collector.Config{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Metrics: reg,
		Handler: func(records []flow.Record) {
			group := passGroup.Load()
			id := tr.begin("handler", passSpan.Load(), group)
			at.parent, at.group = id, group
			if ingestErr == nil {
				for i := range records {
					if err := mgr.Add(&records[i]); err != nil {
						ingestErr = err
						break
					}
				}
			}
			tr.end(id)
			loop.handled()
		},
	})
	if err != nil {
		return nil, err
	}
	mgr.AttachCollector(col)
	if _, err := mgr.Recover(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgrDone, colDone := make(chan error, 1), make(chan error, 1)
	go func() { mgrDone <- mgr.Run(ctx) }()
	go func() { colDone <- col.Run(ctx) }()
	stop := func() error {
		cancel()
		return errors.Join(<-colDone, <-mgrDone)
	}

	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	defer conn.Close()

	cl := l.closers(res)
	clock := passClock{budget: budget}
	for p := 0; clock.more(p); p++ {
		loop.open()
		loop.timeBlocked = tr != nil && p > 0
		passGroup.Store(int32(p))
		span := tr.begin("pass", noSpan, int32(p))
		passSpan.Store(span)
		m0 := readMeter()
		cl.begin(p)
		for i := range in.datagrams {
			if err := loop.before(i); err != nil {
				return nil, errors.Join(err, stop())
			}
			pkt := in.patch(i, p)
			cl.before((i + 1) * collector.V5MaxRecords)
			if _, err := conn.Write(pkt); err != nil {
				return nil, errors.Join(err, stop())
			}
		}
		if err := loop.drain(); err != nil {
			return nil, errors.Join(err, stop())
		}
		m1 := readMeter()
		tr.end(span)
		if ingestErr != nil {
			return nil, errors.Join(fmt.Errorf("ingest: %w", ingestErr), stop())
		}
		res.passDone(p, m0, m1, len(in.records))
		// Between passes, outside the timed section: checkpoint so the
		// WAL rotates and never holds more than one pass. The shipped
		// five-minute timer would not fire within a run.
		if err := mgr.Checkpoint(); err != nil {
			return nil, errors.Join(err, stop())
		}
	}
	res.endOfPasses(tr, reg)
	if err := stop(); err != nil {
		return nil, err
	}
	if err := mgr.AdvanceTo(l.lastWindowEnd(res.passesRun)); err != nil {
		return nil, err
	}
	if err := mgr.Flush(); err != nil {
		return nil, err
	}
	res.drops = eng.Dropped()
	if tr != nil {
		res.layer["loadgen.blocked_share"] = float64(loop.blocked) / float64(res.timedWall())
		res.layer["loadgen.datagrams"] = float64(len(in.datagrams) * len(res.passes))
	}
	return res, mgr.Close()
}

// ---- detect-wide -----------------------------------------------------

type detectWide struct {
	env
	in  *wideInput
	ref []windowRef
}

func (d *detectWide) setup() (err error) {
	d.in = synthWide(d.seed, d.sz.wideHosts)
	d.ref, err = tumblingRefs(d.in.records, d.in.origin, wideWindow, 1, synth.IsInternal, false)
	return err
}

func (d *detectWide) passRecords() []flow.Record { return d.in.records }
func (d *detectWide) refs() []windowRef          { return d.ref }

func (d *detectWide) engineConfig(cfg core.Config, dets []core.Detector) engine.Config {
	return engine.Config{
		Window:    wideWindow,
		Origin:    d.in.origin,
		MaxSkew:   daySkew,
		DropLate:  true,
		Internal:  synth.IsInternal,
		Core:      cfg,
		Detectors: dets,
	}
}

func (d *detectWide) stateBytesPerHost() (float64, error) {
	return engineStateBytes(d.engineConfig(core.DefaultConfig(), nil), func(add func(*flow.Record) error) error {
		for i := range d.in.records {
			if err := add(&d.in.records[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

func (d *detectWide) run(budget time.Duration, tr *tracer, reg *metrics.Registry) (*result, error) {
	in := d.in
	res := newResult(1)
	cfg := core.DefaultConfig() // Parallelism 0, pruning off: as shipped
	cfg.Metrics = reg
	dets, err := newDetectors(cfg, false)
	if err != nil {
		return nil, err
	}
	at := &scope{parent: noSpan}
	eng, err := engine.New(d.engineConfig(cfg, traceDetectors(dets, tr, at, false)), func(r *engine.Result) error {
		id := tr.begin("emit", at.parent, at.group)
		res.emitted(r)
		tr.end(id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Window p-1 closes inside pass p, at the first record that is more
	// than the skew past the window boundary.
	trig := triggers(in.records, in.origin.Add(-wideWindow), wideWindow, daySkew, 1)[0]
	var scratch flow.Record
	clock := passClock{budget: budget}
	for p := 0; clock.more(p); p++ {
		shift := time.Duration(p) * wideWindow
		at.group = int32(p)
		at.parent = tr.begin("pass", noSpan, at.group)
		m0 := readMeter()
		for i := range in.records {
			scratch = in.records[i]
			scratch.Start = scratch.Start.Add(shift)
			scratch.End = scratch.End.Add(shift)
			if i == trig && p > 0 {
				res.handedOff(p - 1)
			}
			if err := eng.Add(&scratch); err != nil {
				return nil, err
			}
		}
		m1 := readMeter()
		tr.end(at.parent)
		res.passDone(p, m0, m1, len(in.records))
	}
	res.endOfPasses(tr, reg)
	if err := eng.AdvanceTo(in.origin.Add(time.Duration(res.passesRun) * wideWindow)); err != nil {
		return nil, err
	}
	res.drops = eng.Dropped()
	return res, nil
}

// ---- dist-2shard -----------------------------------------------------

const distShards = 2

type dist2Shard struct{ dayWorkload }

// cluster starts a coordinator on loopback TCP and its shard workers.
func (d *dist2Shard) cluster(ecfg engine.Config, emit func(*engine.Result) error) (*dist.Coordinator, []*dist.ShardWorker, error) {
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Shards: distShards, Engine: ecfg}, emit)
	if err != nil {
		return nil, nil, err
	}
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, nil, err
	}
	workers := make([]*dist.ShardWorker, distShards)
	for i := range workers {
		workers[i], err = dist.NewShardWorker(dist.WorkerConfig{
			Shard:  i,
			Shards: distShards,
			Engine: ecfg,
			Dial:   func() (net.Conn, error) { return net.Dial("tcp", addr.String()) },
		})
		if err != nil {
			coord.Close()
			return nil, nil, err
		}
	}
	return coord, workers, nil
}

func closeWorkers(workers []*dist.ShardWorker) {
	for _, w := range workers {
		w.Close()
	}
}

func (d *dist2Shard) stateBytesPerHost() (float64, error) {
	coord, workers, err := d.cluster(d.engineConfig(core.DefaultConfig(), nil), func(*engine.Result) error { return nil })
	if err != nil {
		return 0, err
	}
	defer coord.Close()
	defer closeWorkers(workers)
	before := liveHeap()
	err = d.feedFirstWindow(func(r *flow.Record) error {
		return workers[flow.ShardOf(r.Src, distShards)].Add(r)
	})
	if err != nil {
		return 0, err
	}
	hosts := 0
	for _, w := range workers {
		w.Engine().Store().Drain()
		hosts += w.Engine().Store().Hosts()
	}
	return perHost(before, liveHeap(), hosts)
}

func (d *dist2Shard) run(budget time.Duration, tr *tracer, reg *metrics.Registry) (*result, error) {
	in := d.in
	res := newResult(int(dayShift / dayWindow))
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	dets, err := newDetectors(cfg, true)
	if err != nil {
		return nil, err
	}
	// Spans on the coordinator's goroutines are roots of their own: they
	// run beside the feeder, not under it.
	coordAt := &scope{parent: noSpan}
	ecfg := d.engineConfig(cfg, traceDetectors(dets, tr, coordAt, true))
	coord, workers, err := d.cluster(ecfg, func(r *engine.Result) error {
		res.emitted(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	defer closeWorkers(workers)
	// drain waits until the coordinator has acknowledged — and so
	// detected and emitted — everything the shards shipped.
	drain := func() (time.Duration, error) {
		t0 := time.Now()
		for _, wk := range workers {
			if err := wk.Drain(creditTimeout); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	cl := d.closers(res)
	var drains []time.Duration
	var scratch flow.Record
	clock := passClock{budget: budget}
	for p := 0; clock.more(p); p++ {
		shift := time.Duration(p) * dayShift
		span := tr.begin("pass", noSpan, int32(p))
		m0 := readMeter()
		cl.begin(p)
		for i := range in.records {
			scratch = in.records[i]
			scratch.Start = scratch.Start.Add(shift)
			scratch.End = scratch.End.Add(shift)
			cl.before(i + 1)
			if err := workers[flow.ShardOf(scratch.Src, distShards)].Add(&scratch); err != nil {
				return nil, err
			}
		}
		waited, err := drain()
		if err != nil {
			return nil, err
		}
		m1 := readMeter()
		tr.end(span)
		res.passDone(p, m0, m1, len(in.records))
		if p > 0 {
			drains = append(drains, waited)
		}
		res.layer["dist.drain_total_ms"] += ms(waited)
	}
	res.endOfPasses(tr, reg)
	res.layer["dist.drain_ms"] = median(durationsMS(drains))
	for _, wk := range workers {
		if err := wk.AdvanceTo(d.lastWindowEnd(res.passesRun)); err != nil {
			return nil, err
		}
	}
	if _, err := drain(); err != nil {
		return nil, err
	}
	for _, wk := range workers {
		res.drops += wk.Engine().Dropped()
	}
	return res, coord.Flush()
}

// ---- batch-day -------------------------------------------------------

type batchDay struct {
	dayWorkload
	path string
}

func (b *batchDay) setup() (err error) {
	if b.in, err = synthDay(b.seed, b.sz, b.outDir); err != nil {
		return err
	}
	b.path = filepath.Join(b.outDir, fmt.Sprintf("day-%d.flows", os.Getpid()))
	f, err := os.Create(b.path)
	if err != nil {
		return err
	}
	if err := flowio.WriteAllBinary(f, b.in.records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The reference is the path the batch run does not take: one
	// whole-day window through the streaming engine.
	cfg := core.DefaultConfig()
	dets, err := newDetectors(cfg, true)
	if err != nil {
		return err
	}
	ecfg := b.engineConfig(cfg, dets)
	ecfg.Window = b.in.window.Duration()
	eng, err := engine.New(ecfg, func(r *engine.Result) error {
		b.ref = append(b.ref, refOf(r.Index, r.Hosts, r.Records, r.Detections))
		return nil
	})
	if err != nil {
		return err
	}
	for i := range b.in.records {
		if err := eng.Add(&b.in.records[i]); err != nil {
			return err
		}
	}
	return eng.AdvanceTo(b.in.window.To)
}

// cleanup removes the trace file set-up wrote.
func (b *batchDay) cleanup() { os.Remove(b.path) }

func (b *batchDay) extract(records []flow.Record, cfg core.Config) *flow.FeatureSet {
	return flow.ExtractFeatureSet(records, flow.FeatureOptions{Hosts: synth.IsInternal, NewPeerGrace: cfg.NewPeerGrace}, b.in.window)
}

func (b *batchDay) stateBytesPerHost() (float64, error) {
	before := liveHeap()
	src := b.extract(b.in.records, core.DefaultConfig())
	return perHost(before, liveHeap(), src.Hosts())
}

// readAll is plotfind's readTrace: open, stream, collect.
func (b *batchDay) readAll(reg *metrics.Registry) ([]flow.Record, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := flowio.NewBinaryReader(f)
	br.Meter(reg)
	var records []flow.Record
	for {
		rec, err := br.Next()
		if errors.Is(err, io.EOF) {
			return records, nil
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
}

func (b *batchDay) run(budget time.Duration, tr *tracer, reg *metrics.Registry) (*result, error) {
	res := newResult(1)
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	at := &scope{parent: noSpan}
	base, err := newDetectors(cfg, true)
	if err != nil {
		return nil, err
	}
	dets := traceDetectors(base, tr, at, false)
	clock := passClock{budget: budget}
	for p := 0; clock.more(p); p++ {
		at.group = int32(p)
		at.parent = tr.begin("pass", noSpan, at.group)
		m0 := readMeter()
		if p > 0 {
			res.handedOff(p)
		}
		id := tr.begin("flowio.read", at.parent, at.group)
		records, err := b.readAll(reg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("flow.batch_extract", at.parent, at.group)
		src := b.extract(records, cfg)
		tr.end(id)
		detections := make([]*core.Detection, 0, len(dets))
		for _, det := range dets {
			dn, err := det.Detect(src)
			if err != nil {
				return nil, err
			}
			detections = append(detections, dn)
		}
		n := 0
		for _, f := range src.Features() {
			n += f.Flows
		}
		res.emitted(&engine.Result{Index: p, Hosts: src.Hosts(), Records: n, Detections: detections})
		m1 := readMeter()
		tr.end(at.parent)
		res.passDone(p, m0, m1, len(records))
	}
	res.endOfPasses(tr, reg)
	return res, nil
}
