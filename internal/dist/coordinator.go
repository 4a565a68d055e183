package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"plotters/internal/engine"
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
	// Engine is the window geometry and detection configuration every
	// shard must match (the hello handshake compares fingerprints).
	// Engine.Core and Engine.Detectors configure detection over each
	// merged window; Engine.Internal/Shards/StateDir/DropLate are
	// shard-side concerns and ignored here.
	Engine engine.Config
	// WindowTimeout, when positive, force-seals a window that has been
	// waiting on missing shards for this long since its first summary
	// arrived. The result carries an explicit Partial mark. Zero means
	// wait forever (the deterministic-test and batch-replay mode).
	WindowTimeout time.Duration
}

// Coordinator is the global-phase endpoint of a distributed deployment.
// It speaks the shard protocol on any number of connections (one per
// shard, re-established at will), feeds an engine.DistributedDetector,
// and acks frames so workers can trim their resend buffers.
type Coordinator struct {
	cfg CoordinatorConfig
	det *engine.DistributedDetector
	fp  Fingerprint
	reg *metrics.Registry

	mu       sync.Mutex
	seqs     []shardSeq
	conns    map[int]net.Conn // latest live connection per shard
	arrivals map[int]time.Time
	closed   bool

	lnMu sync.Mutex
	ln   net.Listener
	wg   sync.WaitGroup

	stopTimeout chan struct{}
}

// shardSeq is the per-shard sequence accounting, the collector's
// NetFlow discipline applied to summary streams: a forward jump is a
// gap (frames lost in transit), a backward jump is a resend after
// reconnect — counted, deduplicated downstream, never fatal.
type shardSeq struct {
	seen     bool
	next     uint64 // next expected sequence number
	gaps     uint64 // forward jumps observed
	lost     uint64 // frames skipped by those jumps
	dups     uint64 // frames at or behind an already-processed sequence
	connects uint64 // hello handshakes accepted
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
// connection goroutine completed the window.
func NewCoordinator(cfg CoordinatorConfig, emit func(*engine.Result) error) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dist: coordinator Shards = %d must be >= 1", cfg.Shards)
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	det, err := engine.NewDistributed(cfg.Engine, cfg.Shards, emit)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:         cfg,
		det:         det,
		fp:          FingerprintOf(cfg.Engine, cfg.Shards),
		reg:         cfg.Engine.Core.Metrics,
		seqs:        make([]shardSeq, cfg.Shards),
		conns:       make(map[int]net.Conn),
		arrivals:    make(map[int]time.Time),
		stopTimeout: make(chan struct{}),
	}
	if cfg.WindowTimeout > 0 {
		c.wg.Add(1)
		go c.timeoutLoop()
	}
	return c, nil
}

// Detector exposes the underlying window assembler (window counts,
// pending state).
func (c *Coordinator) Detector() *engine.DistributedDetector { return c.det }

// ShardSeqs reports the per-shard transport accounting.
func (c *Coordinator) ShardSeqs() []ShardSeq {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardSeq, len(c.seqs))
	for i := range c.seqs {
		s := &c.seqs[i]
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
	c.lnMu.Lock()
	c.ln = ln
	c.lnMu.Unlock()
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
// wrong version, mismatched fingerprint, malformed frames — return the
// descriptive error after closing the connection.
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
	if err != nil {
		return err
	}
	if h.Shard < 0 || h.Shard >= c.cfg.Shards {
		return fmt.Errorf("dist: coordinator: hello claims shard %d but this deployment runs shards [0,%d)", h.Shard, c.cfg.Shards)
	}
	if err := h.FP.Check(c.fp); err != nil {
		return err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("dist: coordinator is closed")
	}
	if old := c.conns[h.Shard]; old != nil && old != conn {
		old.Close() // the reconnecting worker's stale connection
	}
	c.conns[h.Shard] = conn
	c.seqs[h.Shard].seen = true
	c.seqs[h.Shard].connects++
	c.mu.Unlock()
	c.reg.Counter("dist/connects").Add(1)

	defer func() {
		c.mu.Lock()
		if c.conns[h.Shard] == conn {
			delete(c.conns, h.Shard)
		}
		c.mu.Unlock()
	}()

	for {
		id, payload, err := wire.ReadFrame(conn, maxFramePayload)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			if c.isClosed() || !c.isCurrent(h.Shard, conn) {
				return nil // shut down, or replaced by a reconnect
			}
			return fmt.Errorf("dist: coordinator: shard %d: %w", h.Shard, err)
		}
		if err := c.handleFrame(h.Shard, conn, id, payload); err != nil {
			return err
		}
	}
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Coordinator) isCurrent(shard int, conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[shard] == conn
}

// handleFrame processes one sequenced frame from an authenticated
// shard connection and acks it.
func (c *Coordinator) handleFrame(shard int, conn net.Conn, id uint16, payload []byte) error {
	d := wire.NewDecoder(payload)
	seq := d.U64()
	if err := d.Err(); err != nil {
		return fmt.Errorf("dist: coordinator: shard %d: frame %d truncated before its sequence number", shard, id)
	}
	body := d.Rest()

	c.account(shard, seq)
	c.reg.Counter("dist/frames").Add(1)

	switch id {
	case frameSummary:
		index, sum, err := DecodeSummary(body)
		if err != nil {
			return fmt.Errorf("dist: coordinator: shard %d seq %d: %w", shard, seq, err)
		}
		c.noteArrival(index)
		fresh, err := c.det.Offer(shard, index, sum)
		if err != nil {
			return fmt.Errorf("dist: coordinator: shard %d seq %d: %w", shard, seq, err)
		}
		if fresh {
			c.reg.Counter("dist/summaries").Add(1)
		} else {
			c.reg.Counter("dist/summaries/dup").Add(1)
		}
	case frameWatermark:
		t, err := decodeWatermark(body)
		if err != nil {
			return fmt.Errorf("dist: coordinator: shard %d seq %d: %w", shard, seq, err)
		}
		if err := c.det.Watermark(shard, t); err != nil {
			return fmt.Errorf("dist: coordinator: shard %d seq %d: %w", shard, seq, err)
		}
		c.reg.Counter("dist/watermarks").Add(1)
	default:
		return fmt.Errorf("dist: coordinator: shard %d sent unknown frame type %d — refusing to guess at its meaning", shard, id)
	}
	c.pruneArrivals()

	var e wire.Encoder
	e.U64(seq)
	if err := wire.WriteFrame(conn, frameAck, e.Bytes()); err != nil {
		// The worker will resend after reconnecting; losing an ack is
		// the dup-accounting path, not a failure.
		c.reg.Counter("dist/ack_errors").Add(1)
	}
	return nil
}

// account applies the collector's sequence discipline to one frame.
func (c *Coordinator) account(shard int, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.seqs[shard]
	switch {
	case seq > s.next:
		s.gaps++
		s.lost += seq - s.next
		c.reg.Counter("dist/gaps").Add(1)
		c.reg.Counter("dist/lost_frames").Add(int64(seq - s.next))
		s.next = seq + 1
	case seq < s.next:
		s.dups++ // resend after reconnect; Offer dedups downstream
		c.reg.Counter("dist/dup_frames").Add(1)
	default:
		s.next = seq + 1
	}
}

// noteArrival records when a window's first summary arrived, the clock
// the WindowTimeout force-seal runs against.
func (c *Coordinator) noteArrival(index int) {
	if c.cfg.WindowTimeout <= 0 {
		return
	}
	c.mu.Lock()
	if _, ok := c.arrivals[index]; !ok {
		c.arrivals[index] = time.Now()
	}
	c.mu.Unlock()
}

// pruneArrivals drops timeout bookkeeping for windows that sealed.
func (c *Coordinator) pruneArrivals() {
	if c.cfg.WindowTimeout <= 0 {
		return
	}
	sealed := c.det.MaxSealed()
	c.mu.Lock()
	for idx := range c.arrivals {
		if idx <= sealed {
			delete(c.arrivals, idx)
		}
	}
	c.mu.Unlock()
}

func (c *Coordinator) timeoutLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.WindowTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stopTimeout:
			return
		case <-tick.C:
		}
		deadline := time.Now().Add(-c.cfg.WindowTimeout)
		seal := -1
		c.mu.Lock()
		for idx, at := range c.arrivals {
			if at.Before(deadline) && idx > seal {
				seal = idx
			}
		}
		c.mu.Unlock()
		if seal < 0 {
			continue
		}
		c.reg.Counter("dist/timeout_seals").Add(1)
		if err := c.det.SealWindow(seal); err != nil {
			c.reg.Counter("dist/seal_errors").Add(1)
		}
		c.pruneArrivals()
	}
}

// Flush force-seals every pending window (the shutdown path after all
// shards have drained their feeds).
func (c *Coordinator) Flush() error { return c.det.Flush() }

// Close stops the listener, the timeout loop, and every live shard
// connection, and waits for their goroutines. Pending windows are left
// unsealed; call Flush first to force-emit them.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()

	if c.cfg.WindowTimeout > 0 {
		close(c.stopTimeout)
	}
	c.lnMu.Lock()
	if c.ln != nil {
		c.ln.Close()
	}
	c.lnMu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	return nil
}
