package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
	"plotters/internal/metrics"
	"plotters/internal/wire"
)

// WorkerConfig shapes a ShardWorker — the shard-side process that
// ingests its host-hash slice of the record stream, runs the local
// phase per window, and ships summaries to the coordinator.
type WorkerConfig struct {
	// Shard and Shards name this worker's host-hash slice.
	Shard  int
	Shards int
	// Engine is the window geometry and detection configuration, which
	// must match the coordinator's in what a Fingerprint pins (the hello
	// handshake enforces it), Origin included: a zero one is the epoch
	// grid every node computes alike. Engine.Detectors, the percentiles,
	// the cut fraction and MaxDiameter are ignored — a shard runs exactly
	// the local phase.
	Engine engine.Config
	// Dial establishes a connection to the coordinator. Required; the
	// TCP deployment uses net.Dial, tests use net.Pipe.
	Dial func() (net.Conn, error)
}

const (
	// redialWait paces reconnection attempts after a broken connection.
	redialWait = 50 * time.Millisecond
	// maxDials bounds consecutive failed connection attempts before the
	// worker gives up with the last dial error (the pipe-cluster kill
	// tests rely on retrying through a coordinator restart).
	maxDials = 20
)

// ShardWorker runs the shard-local phase continuously and streams the
// results to the coordinator with at-least-once delivery: every frame
// carries a sequence number, unacknowledged frames live in an outbox,
// and a reconnect replays the outbox (the coordinator deduplicates).
// Feed it like a WindowedDetector: Add records, AdvanceTo punctuation,
// Flush at end of feed; then Drain to wait out acknowledgement.
//
// Not safe for concurrent use by multiple feeders (like the engine it
// wraps); the connection machinery underneath is internally locked.
type ShardWorker struct {
	cfg WorkerConfig
	eng *engine.WindowedDetector
	fp  Fingerprint
	reg *metrics.Registry

	// mu guards the queue/connection state and is never held across a
	// blocking transport write — the ack reader needs it to trim the
	// outbox, and on an unbuffered transport (net.Pipe in tests) a
	// writer holding it while blocked would deadlock against the
	// coordinator's ack. sendMu serializes whole delivery attempts.
	mu        sync.Mutex
	outbox    []outFrame
	nextSeq   uint64
	acked     uint64 // sequence numbers < acked are acknowledged
	conn      net.Conn
	sent      uint64 // sequence numbers < sent are written to conn
	connected bool   // a hello has ever been accepted by a transport write
	closed    bool
	// refused is the coordinator's refusal of this worker's hello. It is
	// final: a configuration mismatch does not heal by redialing, so
	// every later send, AdvanceTo and Drain returns it.
	refused error
	// reading is closed when the current connection's ack reader exits.
	reading chan struct{}

	sendMu sync.Mutex
}

type outFrame struct {
	seq     uint64
	typ     uint16
	payload []byte // body without the sequence prefix
}

// NewShardWorker creates a worker. It does not dial until the first
// frame needs sending.
func NewShardWorker(cfg WorkerConfig) (*ShardWorker, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dist: worker Shards = %d must be >= 1", cfg.Shards)
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("dist: worker shard %d outside [0,%d)", cfg.Shard, cfg.Shards)
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("dist: worker needs a Dial function")
	}

	w := &ShardWorker{cfg: cfg, reg: cfg.Engine.Core.Metrics, fp: FingerprintOf(cfg.Engine, cfg.Shards)}

	// The shard's engine only seals windows, over the worker's hash slice
	// of the monitored population; ship turns each into a summary.
	ecfg := cfg.Engine
	inner := ecfg.Internal
	ecfg.Internal = func(ip flow.IP) bool {
		if inner != nil && !inner(ip) {
			return false
		}
		return flow.ShardOf(ip, cfg.Shards) == cfg.Shard
	}
	var err error
	if w.eng, err = engine.NewSealer(ecfg, w.ship); err != nil {
		return nil, err
	}
	return w, nil
}

// Engine exposes the underlying windowed engine (window counts, the
// feature store, checkpoint integration).
func (w *ShardWorker) Engine() *engine.WindowedDetector { return w.eng }

// ship runs the local phase over one sealed window and enqueues its summary
// for the coordinator: a shard alone cannot detect over a hash slice.
func (w *ShardWorker) ship(src *flow.FeatureSet, res *engine.Result) error {
	t := w.reg.StartStage("engine/detect")
	sum, err := core.LocalPass(src, w.cfg.Engine.Core, w.cfg.Shard, w.cfg.Shards)
	t.Stop()
	if err != nil {
		return fmt.Errorf("dist: worker window %d [%v, %v): %w", res.Index, res.Window.From, res.Window.To, err)
	}
	sum.Partial = res.Partial
	return w.send(frameSummary, EncodeSummary(res.Index, sum))
}

// Add folds one record into the open window. Records for hosts outside
// this worker's shard are filtered by the engine's host predicate, so a
// feed may be broadcast to every worker unrouted.
func (w *ShardWorker) Add(r *flow.Record) error { return w.eng.Add(r) }

// AdvanceTo declares no record before t will arrive, sealing complete
// windows and forwarding the punctuation to the coordinator so it can
// seal windows this shard observed no traffic in.
func (w *ShardWorker) AdvanceTo(t time.Time) error {
	if err := w.eng.AdvanceTo(t); err != nil {
		return err
	}
	return w.send(frameWatermark, encodeWatermark(t))
}

// Flush seals the open partial window at end of feed. The resulting
// summary carries the Partial mark; no watermark is sent — the
// coordinator's owner decides when to force-seal (Coordinator.Flush).
func (w *ShardWorker) Flush() error { return w.eng.Flush() }

// Drain blocks until the coordinator has acknowledged every outstanding
// frame, or the timeout elapses. Call after Flush, before exiting. An
// unreachable coordinator (one restarting, say) is redialed until the
// deadline; a closed worker returns at once.
func (w *ShardWorker) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var err error
	for {
		w.mu.Lock()
		n, closed, refused := len(w.outbox), w.closed, w.refused
		w.mu.Unlock()
		switch {
		case n == 0:
			return nil
		case refused != nil:
			return refused
		case closed:
			return fmt.Errorf("dist: worker shard %d is closed", w.cfg.Shard)
		case time.Now().After(deadline):
			if err != nil {
				return err
			}
			return fmt.Errorf("dist: worker shard %d: %d frames still unacknowledged after %v", w.cfg.Shard, n, timeout)
		}
		// Nudge delivery: the outbox drains via acks on the reader
		// goroutine, but a broken connection needs a redial.
		err = w.flushOutbox()
		time.Sleep(5 * time.Millisecond)
	}
}

// Outstanding returns how many sent-but-unacknowledged frames the
// worker holds.
func (w *ShardWorker) Outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.outbox)
}

// DropConnection severs the current coordinator connection, if any —
// the fault-injection hook the reconnect tests use. The next frame (or
// Drain) redials and resends the outbox.
func (w *ShardWorker) DropConnection() {
	w.mu.Lock()
	conn := w.conn
	w.conn = nil
	w.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close severs the connection and stops the worker. Un-acked frames are
// abandoned; call Flush + Drain first for a clean shutdown.
func (w *ShardWorker) Close() error {
	w.mu.Lock()
	w.closed = true
	conn := w.conn
	w.conn = nil
	w.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return nil
}

// send enqueues one frame and attempts delivery.
func (w *ShardWorker) send(typ uint16, payload []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("dist: worker shard %d is closed", w.cfg.Shard)
	}
	seq := w.nextSeq
	w.nextSeq++
	w.outbox = append(w.outbox, outFrame{seq: seq, typ: typ, payload: payload})
	w.mu.Unlock()
	return w.flushOutbox()
}

// flushOutbox writes every not-yet-sent outbox frame to the current
// connection, dialing (and replaying the whole outbox) if none is live.
// A write failure marks the connection dead and returns nil — the next
// call redials and the frames are still in the outbox; delivery is
// eventually consistent, not per-call guaranteed — unless the
// coordinator refused the hello, which is returned instead.
func (w *ShardWorker) flushOutbox() error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return fmt.Errorf("dist: worker shard %d is closed", w.cfg.Shard)
		}
		if w.refused != nil {
			w.mu.Unlock()
			return w.refused
		}
		if w.conn == nil {
			if err := w.connectLocked(); err != nil {
				w.mu.Unlock()
				return err
			}
		}
		conn, reading := w.conn, w.reading
		var batch []outFrame
		for _, f := range w.outbox {
			if f.seq >= w.sent {
				batch = append(batch, f)
			}
		}
		w.mu.Unlock()
		if len(batch) == 0 {
			return nil
		}
		for _, f := range batch {
			if err := wire.WriteFrame(conn, f.typ, seqPayload(f.seq, f.payload)); err != nil {
				w.reg.Counter("dist/worker/write_errors").Add(1)
				// A refusing coordinator writes its reason before it
				// closes: let the reader take it before deciding.
				select {
				case <-reading:
				case <-time.After(redialWait):
				}
				conn.Close()
				w.mu.Lock()
				if w.conn == conn {
					w.conn = nil
				}
				refused := w.refused
				w.mu.Unlock()
				return refused // nil: frames stay queued; next call redials
			}
			w.reg.Counter("dist/worker/frames").Add(1)
			w.mu.Lock()
			if w.conn == conn && f.seq >= w.sent {
				w.sent = f.seq + 1
			}
			w.mu.Unlock()
		}
		// Loop: the connection may have dropped mid-batch, or new frames
		// may have been enqueued; retry until nothing is left to send.
	}
}

// connectLocked dials the coordinator, sends the hello, and starts the
// ack reader. Called with mu held; retries up to maxDials times.
func (w *ShardWorker) connectLocked() error {
	var lastErr error
	for attempt := 0; attempt < maxDials; attempt++ {
		if attempt > 0 {
			// Sleep without blocking Close/DropConnection callers.
			w.mu.Unlock()
			time.Sleep(redialWait)
			w.mu.Lock()
			if w.closed {
				return fmt.Errorf("dist: worker shard %d is closed", w.cfg.Shard)
			}
		}
		conn, err := w.cfg.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		hb := encodeHello(hello{
			Version: WireVersion,
			Shard:   w.cfg.Shard,
			FP:      w.fp,
		})
		if err := wire.WriteFrame(conn, frameHello, hb); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		w.conn = conn
		w.sent = w.acked // replay everything unacknowledged
		w.reg.Counter("dist/worker/connects").Add(1)
		if w.connected {
			w.reg.Counter("dist/worker/reconnects").Add(1)
		}
		w.connected = true
		w.reading = make(chan struct{})
		go w.readAcks(conn, w.reading)
		return nil
	}
	return fmt.Errorf("dist: worker shard %d: coordinator unreachable after %d attempts: %w", w.cfg.Shard, maxDials, lastErr)
}

// readAcks consumes coordinator acks on one connection, trimming the
// outbox, until the connection breaks or the coordinator refuses the
// hello, and then closes done.
func (w *ShardWorker) readAcks(conn net.Conn, done chan<- struct{}) {
	defer close(done)
	for {
		id, payload, err := wire.ReadFrame(conn, 1<<16)
		if err != nil || id == frameRefuse {
			w.mu.Lock()
			if w.conn == conn {
				w.conn = nil
			}
			if err == nil {
				w.refused = fmt.Errorf("dist: coordinator refused shard %d: %s", w.cfg.Shard, payload)
			}
			w.mu.Unlock()
			conn.Close()
			return
		}
		if id != frameAck {
			continue // future coordinator→worker frames: ignore unknown
		}
		d := wire.NewDecoder(payload)
		seq := d.U64()
		if d.Err() != nil {
			continue
		}
		w.mu.Lock()
		if seq >= w.acked {
			w.acked = seq + 1
			trim := 0
			for trim < len(w.outbox) && w.outbox[trim].seq < w.acked {
				trim++
			}
			w.outbox = w.outbox[trim:]
		}
		w.mu.Unlock()
	}
}
