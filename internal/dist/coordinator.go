package dist

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/metrics"
	"plotters/internal/wire"
)

// CoordinatorConfig shapes a Coordinator — the process that accepts
// shard connections, assembles their per-window summaries, and runs the
// global detection phase.
type CoordinatorConfig struct {
	// Shards is the deployment's total shard count. Every shard from 0
	// to Shards-1 must eventually connect for windows to seal without a
	// timeout. Required.
	Shards int
	// Engine is the window geometry and detection configuration. Every
	// shard must match what a Fingerprint pins (the hello handshake
	// compares them); the rest of Engine.Core and Engine.Detectors
	// configure detection over each merged window, here alone.
	// Engine.Internal/Shards/StateDir/DropLate are shard-side concerns
	// and ignored here.
	Engine engine.Config
	// WindowTimeout, when positive, force-seals a window that has been
	// waiting on missing shards for this long since its first summary
	// arrived. The result carries an explicit Partial mark. Zero means
	// wait forever (the deterministic-test and batch-replay mode);
	// negative is rejected.
	WindowTimeout time.Duration
}

// Coordinator is the global-phase endpoint of a distributed deployment
// and the one owner of window assembly. It speaks the shard protocol on
// any number of connections (one per shard, re-established at will) and
// acks frames so workers can trim their resend buffers.
//
// FindPlotters thresholds on percentiles of the whole monitored
// population, so a window is detected only once it is complete: every
// shard has either sent its summary for it or advanced its watermark
// past the window's end (proving the window empty there). The window's
// summaries then merge once and the detectors run over the merge
// (engine.RunWindow), emitting in ascending window order. A window still
// missing shards WindowTimeout after its first summary, or at Flush, is
// force-sealed with an explicit Partial mark.
//
// All state sits under one mutex, and emit runs under it: emit must not
// call back into the coordinator.
type Coordinator struct {
	cfg       CoordinatorConfig
	fp        Fingerprint
	reg       *metrics.Registry
	detectors []core.Detector
	emit      func(*engine.Result) error

	mu        sync.Mutex
	shards    []shardState
	pending   map[int]*pendingWindow
	maxSealed int // highest sealed window index (-1 before any)
	windows   int // results emitted
	closed    bool
	ln        net.Listener

	wg sync.WaitGroup
}

// shardState is what the coordinator knows of one shard: its live
// connection, its watermark, and its sequence accounting — the
// collector's NetFlow discipline applied to summary streams: a forward
// jump is a gap (frames lost in transit), a backward jump is a resend
// after reconnect — counted, deduplicated against the highest window
// the shard delivered, never fatal.
type shardState struct {
	conn      net.Conn  // latest live connection; nil between connections
	watermark time.Time // no summary will come for a window ending at or before it
	sentTo    int       // one past the highest window index this shard sent a summary for
	seen      bool
	next      uint64 // next expected sequence number
	gaps      uint64 // forward jumps observed
	lost      uint64 // frames skipped by those jumps
	dups      uint64 // frames at or behind an already-processed sequence
	connects  uint64 // hello handshakes accepted
}

// pendingWindow is a window some shard has sent a summary for that has
// not sealed yet.
type pendingWindow struct {
	window   flow.Window
	sums     []*core.ShardSummary // by shard; nil until that shard's arrives
	deadline *time.Timer          // the WindowTimeout force-seal; nil without one
}

// ShardSeq reports one shard's transport accounting.
type ShardSeq struct {
	Shard    int
	Seen     bool
	Gaps     uint64
	Lost     uint64
	Dups     uint64
	Connects uint64
}

// NewCoordinator creates a coordinator. emit receives every completed
// window's result in ascending window order, called from whichever
// connection goroutine (or timeout) completed the window.
func NewCoordinator(cfg CoordinatorConfig, emit func(*engine.Result) error) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dist: coordinator Shards = %d must be >= 1", cfg.Shards)
	}
	if cfg.WindowTimeout < 0 {
		return nil, fmt.Errorf("dist: coordinator WindowTimeout = %v must be >= 0 (0 waits forever)", cfg.WindowTimeout)
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	detectors, err := cfg.Engine.ResolveDetectors()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		fp:        FingerprintOf(cfg.Engine, cfg.Shards),
		reg:       cfg.Engine.Core.Metrics,
		detectors: detectors,
		shards:    make([]shardState, cfg.Shards),
		pending:   make(map[int]*pendingWindow),
		maxSealed: -1,
	}
	c.emit = func(r *engine.Result) error {
		c.windows++
		if emit == nil {
			return nil
		}
		return emit(r)
	}
	return c, nil
}

// Windows returns how many window results have been emitted.
func (c *Coordinator) Windows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windows
}

// ShardSeqs reports the per-shard transport accounting.
func (c *Coordinator) ShardSeqs() []ShardSeq {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardSeq, len(c.shards))
	for i, s := range c.shards {
		out[i] = ShardSeq{Shard: i, Seen: s.seen, Gaps: s.gaps, Lost: s.lost, Dups: s.dups, Connects: s.connects}
	}
	return out
}

// Listen binds addr and starts accepting shard connections in the
// background, returning the bound address (useful with ":0").
func (c *Coordinator) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listen: %w", err)
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go c.acceptLoop(ln)
	return ln.Addr(), nil
}

func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := c.ServeConn(conn); err != nil {
				c.reg.Counter("dist/conn_errors").Add(1)
			}
		}()
	}
}

// ServeConn speaks the shard protocol on one established connection
// until it closes, exported so tests and alternative transports
// (net.Pipe, as DistCluster does) can drive the coordinator without a
// TCP listener. A clean peer close returns nil; protocol violations —
// wrong version, mismatched fingerprint, malformed or inconsistent
// frames — return the descriptive error after closing the connection.
// A refused hello is also answered with a refusal frame carrying that
// error, so the worker stops redialing and can say why.
func (c *Coordinator) ServeConn(conn net.Conn) error {
	defer conn.Close()

	id, payload, err := wire.ReadFrame(conn, maxHelloPayload)
	if err != nil {
		return fmt.Errorf("dist: coordinator: reading hello: %w", err)
	}
	if id != frameHello {
		return fmt.Errorf("dist: coordinator: connection opened with frame type %d, want hello (%d)", id, frameHello)
	}
	h, err := decodeHello(payload)
	if err == nil && (h.Shard < 0 || h.Shard >= c.cfg.Shards) {
		err = fmt.Errorf("dist: coordinator: hello claims shard %d but this deployment runs shards [0,%d)", h.Shard, c.cfg.Shards)
	}
	if err == nil {
		err = h.FP.Check(c.fp)
	}
	if err != nil {
		// Best effort: a worker that never reads the reason still sees
		// the connection close.
		conn.SetWriteDeadline(time.Now().Add(refuseTimeout))
		wire.WriteFrame(conn, frameRefuse, []byte(err.Error()))
		return err
	}
	if err := c.attach(h.Shard, conn); err != nil {
		return err
	}
	defer c.detach(h.Shard, conn)
	c.reg.Counter("dist/connects").Add(1)

	for {
		id, payload, err := wire.ReadFrame(conn, maxFramePayload)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			if c.stale(h.Shard, conn) {
				return nil // shut down, or replaced by a reconnect
			}
			return fmt.Errorf("dist: coordinator: shard %d: %w", h.Shard, err)
		}
		seq, err := c.handleFrame(h.Shard, id, payload)
		if err != nil {
			return err
		}
		var e wire.Encoder
		e.U64(seq)
		if err := wire.WriteFrame(conn, frameAck, e.Bytes()); err != nil {
			// The worker will resend after reconnecting; losing an ack is
			// the dup-accounting path, not a failure.
			c.reg.Counter("dist/ack_errors").Add(1)
		}
	}
}

// attach makes conn the shard's live connection, closing the stale one
// a reconnecting worker left behind.
func (c *Coordinator) attach(shard int, conn net.Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("dist: coordinator is closed")
	}
	s := &c.shards[shard]
	if s.conn != nil && s.conn != conn {
		s.conn.Close()
	}
	s.conn, s.seen = conn, true
	s.connects++
	return nil
}

// detach forgets conn as the shard's live connection, unless a
// reconnect has already replaced it.
func (c *Coordinator) detach(shard int, conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shards[shard].conn == conn {
		c.shards[shard].conn = nil
	}
}

// stale reports whether a read error on conn is expected: the
// coordinator shut down, or a reconnect replaced conn.
func (c *Coordinator) stale(shard int, conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed || c.shards[shard].conn != conn
}

// handleFrame decodes and applies one sequenced frame from an
// authenticated shard connection, returning the sequence number to ack.
// Decoding runs outside the lock; an error leaves the windows untouched.
func (c *Coordinator) handleFrame(shard int, id uint16, payload []byte) (uint64, error) {
	d := wire.NewDecoder(payload)
	seq := d.U64()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("dist: coordinator: shard %d: frame %d truncated before its sequence number", shard, id)
	}
	c.account(shard, seq)
	c.reg.Counter("dist/frames").Add(1)

	switch id {
	case frameSummary:
		index, sum, err := DecodeSummary(d.Rest())
		if err == nil {
			err = c.offer(shard, index, sum)
		}
		if err != nil {
			return 0, fmt.Errorf("dist: coordinator: shard %d seq %d: %w", shard, seq, err)
		}
	case frameWatermark:
		t, err := decodeWatermark(d.Rest())
		if err == nil {
			err = c.advance(shard, t)
		}
		if err != nil {
			return 0, fmt.Errorf("dist: coordinator: shard %d seq %d: %w", shard, seq, err)
		}
	default:
		return 0, fmt.Errorf("dist: coordinator: shard %d sent unknown frame type %d — refusing to guess at its meaning", shard, id)
	}
	return seq, nil
}

// account applies the collector's sequence discipline to one frame.
func (c *Coordinator) account(shard int, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.shards[shard]
	switch {
	case seq > s.next:
		s.gaps++
		s.lost += seq - s.next
		c.reg.Counter("dist/gaps").Add(1)
		c.reg.Counter("dist/lost_frames").Add(int64(seq - s.next))
		s.next = seq + 1
	case seq < s.next:
		s.dups++ // resend after reconnect; offer dedups its summaries
		c.reg.Counter("dist/dup_frames").Add(1)
	default:
		s.next = seq + 1
	}
}

// offer folds one shard's summary for window index in, sealing every
// window that completes. A shard seals its windows in index order, so a
// summary at or below the highest index it already sent is a resend
// after reconnect (dist/summaries/dup); one above it for a window
// already sealed is a straggler's, whose window WindowTimeout
// force-sealed without it (dist/summaries/late). Neither is folded in,
// and neither is an error. A summary inconsistent with the deployment
// or with the other shards is refused before it changes anything.
func (c *Coordinator) offer(shard, index int, sum *core.ShardSummary) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sum.Shards != c.cfg.Shards {
		return fmt.Errorf("summary is of a %d-shard split but this coordinator runs %d shards", sum.Shards, c.cfg.Shards)
	}
	if sum.Shard != shard {
		return fmt.Errorf("summary claims shard %d but arrived on shard %d's connection", sum.Shard, shard)
	}
	pw := c.pending[index]
	if pw != nil && (!pw.window.From.Equal(sum.Window.From) || !pw.window.To.Equal(sum.Window.To)) {
		return fmt.Errorf("shard %d places window %d at [%v, %v) but other shards place it at [%v, %v) — window geometry disagrees",
			shard, index, sum.Window.From, sum.Window.To, pw.window.From, pw.window.To)
	}
	// A complete summary for w proves the shard's frontier passed w's end.
	s := &c.shards[shard]
	if !sum.Partial && sum.Window.To.After(s.watermark) {
		s.watermark = sum.Window.To
	}
	if index < s.sentTo {
		c.reg.Counter("dist/summaries/dup").Add(1)
		return c.seal(math.MaxInt, false)
	}
	s.sentTo = index + 1
	if index <= c.maxSealed {
		c.reg.Counter("dist/summaries/late").Add(1)
		return c.seal(math.MaxInt, false)
	}
	if pw == nil {
		pw = &pendingWindow{window: sum.Window, sums: make([]*core.ShardSummary, c.cfg.Shards)}
		if c.cfg.WindowTimeout > 0 {
			pw.deadline = time.AfterFunc(c.cfg.WindowTimeout, func() { c.timeout(index) })
		}
		c.pending[index] = pw
	}
	pw.sums[shard] = sum
	c.reg.Counter("dist/summaries").Add(1)
	return c.seal(math.MaxInt, false)
}

// advance applies a shard's watermark: it will produce no further
// summary for any window ending at or before t (stream punctuation
// forwarded from the shard's engine). Every window it completes seals.
func (c *Coordinator) advance(shard int, t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("dist/watermarks").Add(1)
	if s := &c.shards[shard]; t.After(s.watermark) {
		s.watermark = t
	}
	return c.seal(math.MaxInt, false)
}

// timeout is a pending window's WindowTimeout deadline: it force-seals
// the window and every earlier one still pending.
func (c *Coordinator) timeout(index int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.pending[index] == nil {
		return // sealed while this deadline waited for the lock, or shut down
	}
	c.reg.Counter("dist/timeout_seals").Add(1)
	if err := c.seal(index, true); err != nil {
		c.reg.Counter("dist/seal_errors").Add(1)
	}
}

// Flush force-seals every pending window (the shutdown path after all
// shards have drained their feeds).
func (c *Coordinator) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seal(math.MaxInt, true)
}

// seal seals pending windows through index last in ascending order. It
// stops at the first window the slowest shard's watermark has not passed
// unless force is set. Called with mu held.
func (c *Coordinator) seal(last int, force bool) error {
	slowest := c.shards[0].watermark
	for _, s := range c.shards[1:] {
		if s.watermark.Before(slowest) {
			slowest = s.watermark
		}
	}
	order := make([]int, 0, len(c.pending))
	for idx := range c.pending {
		if idx <= last {
			order = append(order, idx)
		}
	}
	sort.Ints(order)
	for _, idx := range order {
		pw := c.pending[idx]
		if !force && pw.window.To.After(slowest) {
			return nil
		}
		if err := c.sealWindow(idx, pw); err != nil {
			return err
		}
	}
	return nil
}

// sealWindow merges one pending window's summaries, runs the detectors
// over the merge, and emits. The result is Partial if any summary is, or
// if a shard that sent none has not proven the window empty on it.
// Called with mu held.
func (c *Coordinator) sealWindow(index int, pw *pendingWindow) error {
	delete(c.pending, index)
	if pw.deadline != nil {
		pw.deadline.Stop()
	}
	c.maxSealed = index
	partial := false
	sums := make([]*core.ShardSummary, 0, len(pw.sums))
	for shard, sum := range pw.sums {
		if sum != nil {
			sums = append(sums, sum)
			partial = partial || sum.Partial
		} else if pw.window.To.After(c.shards[shard].watermark) {
			partial = true
		}
	}
	merged, err := core.MergeSummaries(sums)
	if err != nil {
		return fmt.Errorf("window %d [%v, %v): %w", index, pw.window.From, pw.window.To, err)
	}
	return engine.RunWindow(c.reg, "engine/globalpass", c.detectors, merged.FeatureSet(),
		&engine.Result{Window: pw.window, Index: index, Partial: partial}, c.emit)
}

// Close stops the listener, every window deadline and every live shard
// connection, and waits for the connection goroutines. Pending windows
// are left unsealed; call Flush first to force-emit them.
func (c *Coordinator) Close() error {
	c.shutdown()
	c.wg.Wait()
	return nil
}

// shutdown marks the coordinator closed, so a deadline that fires later
// seals nothing, and closes what the connection goroutines block on.
func (c *Coordinator) shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, pw := range c.pending {
		if pw.deadline != nil {
			pw.deadline.Stop()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
	for _, s := range c.shards {
		if s.conn != nil {
			s.conn.Close()
		}
	}
}
