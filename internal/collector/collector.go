package collector

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"plotters/internal/flow"
	"plotters/internal/ingest"
	"plotters/internal/metrics"
)

// Defaults for Config's zero values, and the fixed datagram buffer size.
const (
	// DefaultQueueSize bounds the packet queue between the socket
	// reader and the decode workers.
	DefaultQueueSize = 4096
	// DefaultMaxPacketSize is the receive buffer per datagram — the
	// largest datagram accepted; longer ones are truncated by the kernel
	// and count as malformed. NetFlow v5 packets are ≤1464 bytes; 9216
	// leaves headroom for jumbo-framed v9 exports.
	DefaultMaxPacketSize = 9216
	// DefaultBatch is the receive batch: how many datagrams one
	// recvmmsg(2) call may drain on Linux. 1 falls back to single
	// reads everywhere.
	DefaultBatch = 32
)

// Config shapes a Collector.
type Config struct {
	// Addr is the UDP listen address, e.g. ":2055" (the conventional
	// NetFlow port) or "127.0.0.1:0" (tests). Required.
	Addr string
	// Workers sizes the decode pool (≤0: one per CPU). RunLive, the path
	// matrix and the benchmarks pass 1, so records arrive in order. With
	// more than one worker, packets may be decoded — and their records
	// delivered — slightly out of arrival order; size the engine's
	// MaxSkew accordingly.
	Workers int
	// QueueSize bounds the ingest queue (≤0: DefaultQueueSize). When
	// the queue is full, packets are counted as dropped and discarded —
	// the socket reader never blocks, so kernel-side loss stays
	// visible in the exporter sequence numbers instead of compounding.
	QueueSize int
	// Batch is how many datagrams the socket reader may drain per
	// receive call (≤0: DefaultBatch). On Linux, batches arrive via one
	// recvmmsg(2) system call each; elsewhere the value only sizes the
	// buffer ring and reads stay one datagram per call.
	Batch int
	// SampleN, when > 1, enables the deterministic flow-sampling stage:
	// 1 in SampleN decoded records is kept (content-hash selection, see
	// ingest.Sampler) and the rest are counted and discarded before the
	// Handler. 0 and 1 keep every record — the default path is
	// bit-identical to an unsampled collector.
	SampleN uint64
	// SampleSeed perturbs the sampling hash so independent deployments
	// keep independent subsets. Only meaningful with SampleN > 1.
	SampleSeed uint64
	// Handler receives each decoded packet's records. Calls are
	// serialized (never concurrent), so a single-writer consumer like
	// engine.WindowedDetector needs no locking of its own. The slice
	// and the records are reused after the call returns — copy
	// anything retained. Required.
	Handler func(records []flow.Record)
	// Metrics, when non-nil, receives the collector's full instrument
	// set under "collector/...". Nil disables instrumentation at zero
	// cost.
	Metrics *metrics.Registry
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("collector: Addr is required")
	}
	if c.Handler == nil {
		return fmt.Errorf("collector: Handler is required")
	}
	return nil
}

// exporterKey identifies one exporter stream for sequence accounting.
type exporterKey struct {
	addr   string
	stream uint16 // Packet.Stream
}

// exporterState tracks one exporter stream's sequence expectations, one
// slot per row of Protocols: whether a packet of that protocol has been
// seen, and the sequence number expected on the next one. Slots 0 and 1
// survive restarts via SequenceStates; the rest are collector-local (the
// checkpoint wire format predates them), so a restarted collector
// treats those streams as fresh — which can hide a cross-outage gap but
// can never fabricate one.
type exporterState [len(Protocols)]struct {
	seen bool
	next uint32
}

// Collector ingests flow export packets from a UDP socket: a batched
// reader drains datagrams into a fixed ring of reusable buffers
// (recvmmsg on Linux — see internal/ingest), a worker pool decodes
// them (one row of Protocols each), an optional deterministic
// sampling stage thins the records, and survivors are handed to the
// configured Handler in serialized calls. The steady-state path from
// socket to Handler performs zero allocations per record. Create with
// Listen, drive with Run.
type Collector struct {
	cfg       Config
	conn      *net.UDPConn
	reader    ingest.BatchReader
	ring      *ingest.Ring
	queue     chan *ingest.Buf
	sampler   ingest.Sampler
	templates *TemplateCache

	closeMu sync.RWMutex // guards closed + close(queue) vs. ingest sends
	closed  bool

	emitMu sync.Mutex // serializes Handler calls

	expMu     sync.Mutex
	exporters map[exporterKey]*exporterState

	// Instruments, cached at Listen so the hot path never takes the
	// registry lock. All are nil-safe no-ops without a registry.
	mPackets, mBytes, mRecords        *metrics.Counter
	mMalformed, mUnknownVer, mDropped *metrics.Counter
	mGaps, mLostFlows, mLostPackets   *metrics.Counter
	mResets, mTemplates, mMissingTmpl *metrics.Counter
	mReadErrors, mBatches             *metrics.Counter
	mSampledOut, mEvicted             *metrics.Counter
	mSkippedItems                     *metrics.Counter
	gQueueHW, gExporters              *metrics.Gauge
}

// Listen binds the UDP socket and prepares the collector. No packets
// are consumed until Run.
func Listen(cfg Config) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	reg := cfg.Metrics
	c := &Collector{
		cfg:    cfg,
		conn:   conn,
		reader: ingest.NewBatchReader(conn, cfg.Batch),
		// The ring covers every buffer that can be in flight at once —
		// full queue + one receive batch + one per worker — so the
		// reader always finds a free buffer and backpressure resolves
		// as counted queue drops, never as a blocked socket.
		ring:      ingest.NewRing(cfg.QueueSize+cfg.Batch+cfg.Workers, DefaultMaxPacketSize),
		queue:     make(chan *ingest.Buf, cfg.QueueSize),
		sampler:   ingest.Sampler{N: cfg.SampleN, Seed: cfg.SampleSeed},
		templates: NewTemplateCache(),
		exporters: make(map[exporterKey]*exporterState),

		mPackets:      reg.Counter("collector/packets"),
		mBytes:        reg.Counter("collector/bytes"),
		mRecords:      reg.Counter("collector/records"),
		mMalformed:    reg.Counter("collector/packets/malformed"),
		mUnknownVer:   reg.Counter("collector/packets/unknown_version"),
		mDropped:      reg.Counter("collector/packets/dropped"),
		mGaps:         reg.Counter("collector/seq/gaps"),
		mLostFlows:    reg.Counter("collector/seq/lost_flows"),
		mLostPackets:  reg.Counter("collector/seq/lost_packets"),
		mResets:       reg.Counter("collector/seq/resets"),
		mTemplates:    reg.Counter("collector/v9/templates"),
		mMissingTmpl:  reg.Counter("collector/v9/missing_template"),
		mReadErrors:   reg.Counter("collector/read_errors"),
		mBatches:      reg.Counter("collector/batches"),
		mSampledOut:   reg.Counter("collector/records/sampled_out"),
		mEvicted:      reg.Counter("collector/templates/evicted"),
		mSkippedItems: reg.Counter("collector/sflow/skipped"),
		gQueueHW:      reg.Gauge("collector/queue/high_water"),
		gExporters:    reg.Gauge("collector/exporters"),
	}
	return c, nil
}

// Addr returns the bound socket address (useful with ":0").
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// Run pumps the socket until ctx is cancelled: the reader enqueues,
// cfg.Workers decode, and the Handler receives records. On
// cancellation the socket closes, queued packets drain through the
// workers, and Run returns nil. A socket read failure other than
// shutdown aborts with that error.
func (c *Collector) Run(ctx context.Context) error {
	var workers sync.WaitGroup
	for i := 0; i < c.cfg.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			c.worker()
		}()
	}
	stop := context.AfterFunc(ctx, func() { c.conn.Close() })
	readErr := c.readLoop(ctx)
	stop()
	c.conn.Close()

	// Stop accepting, then let the workers drain what's queued.
	c.closeMu.Lock()
	c.closed = true
	close(c.queue)
	c.closeMu.Unlock()
	workers.Wait()

	if readErr != nil && ctx.Err() == nil {
		return readErr
	}
	return nil
}

// readLoop is the socket pump: pull free buffers from the ring, fill a
// batch from the socket, enqueue. It does no decoding — under load the
// only way to lose packets here is the bounded queue's explicit drop,
// never a stalled reader. At steady state the loop performs zero
// allocations: buffers recycle through the ring and exporter addresses
// are interned by the reader.
func (c *Collector) readLoop(ctx context.Context) error {
	bufs := make([]*ingest.Buf, 0, c.cfg.Batch)
	for {
		bufs = bufs[:0]
		for len(bufs) < c.cfg.Batch {
			b, ok := c.ring.Get()
			if !ok {
				break
			}
			bufs = append(bufs, b)
		}
		if len(bufs) == 0 {
			// Unreachable by construction (the ring is sized past the
			// queue + workers), kept as a guard against a hot spin.
			time.Sleep(time.Millisecond)
			continue
		}
		n, err := c.reader.ReadBatch(bufs)
		if err != nil {
			for _, b := range bufs {
				c.ring.Put(b)
			}
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			c.mReadErrors.Add(1)
			return fmt.Errorf("collector: reading socket: %w", err)
		}
		c.mBatches.Add(1)
		for _, b := range bufs[n:] {
			c.ring.Put(b)
		}
		// One clock read per batch, none in any decoder.
		arrival := time.Now().UTC()
		for _, b := range bufs[:n] {
			b.Arrival = arrival
			c.ingest(b)
		}
	}
}

// Inject feeds one export packet as if it had arrived on the socket
// from the named exporter — the datagram-free path used by tests,
// benchmarks, and in-process replay. The data is copied; ingest
// semantics (metrics, queue bounds, drops) are identical to the socket
// path, including buffer-ring exhaustion counting as a drop. Safe to
// call concurrently with Run; packets injected after Run returns are
// counted as dropped.
func (c *Collector) Inject(data []byte, exporter string) {
	pb, ok := c.ring.Get()
	if !ok {
		c.mPackets.Add(1)
		c.mBytes.Add(int64(len(data)))
		c.mDropped.Add(1)
		return
	}
	if cap(pb.Data) < len(data) {
		pb.Data = make([]byte, len(data))
	}
	pb.Data = pb.Data[:len(data)]
	copy(pb.Data, data)
	pb.Exporter = exporter
	pb.Arrival = time.Now().UTC()
	c.ingest(pb)
}

// ingest enqueues one packet, dropping on overflow. Never blocks.
func (c *Collector) ingest(pb *ingest.Buf) {
	c.mPackets.Add(1)
	c.mBytes.Add(int64(len(pb.Data)))
	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		c.mDropped.Add(1)
		c.ring.Put(pb)
		return
	}
	select {
	case c.queue <- pb:
		c.gQueueHW.SetMax(int64(len(c.queue)))
		c.closeMu.RUnlock()
	default:
		c.closeMu.RUnlock()
		c.mDropped.Add(1)
		c.ring.Put(pb)
	}
}

// worker decodes queued packets until the queue closes and drains.
// Each worker owns one record arena reused across packets; the Handler
// contract (records valid only during the call) is what makes that
// safe.
func (c *Collector) worker() {
	var arena ingest.RecordArena
	for pb := range c.queue {
		c.process(pb, &arena)
	}
}

// process decodes one packet with the first row of Protocols that
// recognises it, accounts its sequence, and delivers its records through
// the sampling stage. Malformed input is counted and skipped — a hostile
// or buggy exporter must never take the collector down.
func (c *Collector) process(pb *ingest.Buf, arena *ingest.RecordArena) {
	defer c.ring.Put(pb)
	if pb.Truncated {
		// The kernel cut the datagram (MSG_TRUNC): it cannot decode
		// cleanly, so count it without parsing.
		c.mMalformed.Add(1)
		return
	}
	for i := range Protocols {
		p := &Protocols[i]
		if !p.Sniff(pb.Data) {
			continue
		}
		pk, recs, err := p.Decode(c.templates, pb.Exporter, pb.Data, pb.Arrival, arena.Take())
		c.mTemplates.Add(int64(pk.Templates))
		c.mMissingTmpl.Add(int64(pk.MissingTemplates))
		c.mEvicted.Add(int64(pk.Evicted))
		c.mSkippedItems.Add(int64(pk.Skipped))
		if err != nil {
			c.mMalformed.Add(1)
		} else {
			c.account(i, pb.Exporter, pk, len(recs))
		}
		if err == nil || p.KeepPartial {
			c.deliver(recs)
		}
		arena.Reset(recs)
		return
	}
	if len(pb.Data) < 2 {
		c.mMalformed.Add(1) // too short to carry any version field
	} else {
		c.mUnknownVer.Add(1)
	}
}

// deliver runs one packet's records through the sampling stage and
// hands the survivors to the Handler under the emit lock, so consumers
// see a single-threaded stream.
func (c *Collector) deliver(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	if c.sampler.Enabled() {
		kept := c.sampler.Filter(recs)
		c.mSampledOut.Add(int64(len(recs) - len(kept)))
		recs = kept
		if len(recs) == 0 {
			return
		}
	}
	c.mRecords.Add(int64(len(recs)))
	c.emitMu.Lock()
	c.cfg.Handler(recs)
	c.emitMu.Unlock()
}

// exporter returns the accounting state for one exporter stream,
// creating it on first sight.
func (c *Collector) exporter(key exporterKey) *exporterState {
	st, ok := c.exporters[key]
	if !ok {
		st = &exporterState{}
		c.exporters[key] = st
		c.gExporters.Set(int64(len(c.exporters)))
	}
	return st
}

// account checks one cleanly decoded packet of row proto against the
// exporter stream's running sequence. The sequence number counts what
// the stream sent before this packet, so a jump forward of d means
// exactly d flows or packets (the row's unit) were exported but never
// decoded here — lost in the network, the kernel buffer, or our own
// queue drops. A jump backward is an exporter restart (or heavy
// reordering): counted as a reset and resynced, never as a gap.
func (c *Collector) account(proto int, exporter string, pk Packet, records int) {
	p := &Protocols[proto]
	c.expMu.Lock()
	defer c.expMu.Unlock()
	st := &c.exporter(exporterKey{exporter, pk.Stream})[proto]
	if st.seen {
		switch d := int32(pk.Sequence - st.next); {
		case d > 0:
			c.mGaps.Add(1)
			lost := c.mLostPackets
			if p.SeqCountsFlows {
				lost = c.mLostFlows
			}
			lost.Add(int64(d))
		case d < 0:
			c.mResets.Add(1)
		}
	}
	st.seen, st.next = true, pk.Sequence+p.SeqStep(records)
}

// SequenceState is one exporter stream's serializable sequence
// expectations — the state that must survive a collector restart so the
// first packets after recovery are checked against the pre-crash
// sequence numbers instead of being treated as a fresh stream (real
// gaps across the outage stay visible; false resets never fire). Only
// rows 0 and 1 of Protocols are checkpointed (the snapshot wire format
// predates the others); those streams restart fresh, which can hide a
// cross-outage gap but never invents one.
type SequenceState struct {
	Exporter string // exporter socket address, as reported by the kernel
	Engine   uint16 // v5: engine_type<<8|engine_id; v9: source ID (low 16)
	V5Seen   bool
	V5Next   uint32 // expected flow_sequence of the next v5 packet
	V9Seen   bool
	V9Next   uint32 // expected package sequence of the next v9 packet
}

// SequenceStates snapshots every exporter stream's sequence accounting,
// sorted by (Exporter, Engine) so the same state always serializes to
// the same bytes. Safe to call concurrently with Run.
func (c *Collector) SequenceStates() []SequenceState {
	c.expMu.Lock()
	defer c.expMu.Unlock()
	if len(c.exporters) == 0 {
		return nil
	}
	out := make([]SequenceState, 0, len(c.exporters))
	for key, st := range c.exporters {
		out = append(out, SequenceState{
			Exporter: key.addr,
			Engine:   key.stream,
			V5Seen:   st[0].seen,
			V5Next:   st[0].next,
			V9Seen:   st[1].seen,
			V9Next:   st[1].next,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exporter != out[j].Exporter {
			return out[i].Exporter < out[j].Exporter
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// RestoreSequenceStates seeds the exporter accounting from a snapshot,
// typically before Run on a collector recovering from a checkpoint.
// Existing entries for the same exporter stream are overwritten.
func (c *Collector) RestoreSequenceStates(states []SequenceState) {
	c.expMu.Lock()
	defer c.expMu.Unlock()
	for _, s := range states {
		st := c.exporter(exporterKey{addr: s.Exporter, stream: s.Engine})
		st[0].seen, st[0].next = s.V5Seen, s.V5Next
		st[1].seen, st[1].next = s.V9Seen, s.V9Next
	}
}
