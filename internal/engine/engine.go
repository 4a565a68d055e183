// Package engine turns the batch FindPlotters pipeline into a
// continuous windowed detector, the shape a production border
// deployment needs: flow records stream in, per-host features
// accumulate in a sharded store (internal/flow.ShardedExtractor), and
// at every window boundary the engine seals the elapsed window, runs
// the full detection pipeline (reduction → θ_vol → θ_churn → θ_hm) over
// the sealed features, emits a per-window Result, and rotates state —
// the trace never sits in memory, and feature accumulation never blocks
// on detection of a sealed window's shard-sealed features.
//
// Windows are tumbling by default (the paper's per-day detection
// windows, §V); setting Slide < Window turns them into overlapping
// sliding windows built by merging Window/Slide sealed panes
// (flow.MergePanes), trading memory for detection latency.
package engine

import (
	"errors"
	"fmt"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// ErrLateRecord marks a record that arrived more than MaxSkew behind
// the stream frontier and was dropped. Callers running over live feeds
// typically count these and continue (errors.Is).
var ErrLateRecord = errors.New("engine: record beyond MaxSkew behind the frontier")

// Config shapes a WindowedDetector.
type Config struct {
	// Window is the detection window length (the paper uses 24-hour
	// collection days; the synthesized corpus 6-hour collection
	// windows). Required.
	Window time.Duration
	// Slide, when positive and less than Window, makes windows slide:
	// a detection runs every Slide over the trailing Window of traffic.
	// Window must be a whole multiple of Slide. Zero means tumbling
	// windows (back to back, no overlap).
	Slide time.Duration
	// Origin aligns window boundaries: windows start at Origin + i*Slide
	// (tumbling: Origin + i*Window). The zero value aligns the first
	// window at the first record's start time.
	Origin time.Time
	// Shards is the feature store's shard count (≤ 0 = one per CPU).
	Shards int
	// MaxSkew is the reorder tolerance of the feed: records may arrive
	// up to MaxSkew behind the latest start time seen (the slack a flow
	// monitor's end-of-flow reporting needs). Window boundaries are
	// sealed only once the frontier has advanced MaxSkew past them.
	MaxSkew time.Duration
	// DropLate makes records beyond MaxSkew a non-fatal event: Add
	// counts the drop (Dropped, "engine/drops") and returns nil instead
	// of ErrLateRecord. This is the mode a live collector wants — one
	// packet straggling in after a window sealed is a statistic, not a
	// reason to abort ingest. Off, Add surfaces ErrLateRecord per
	// record and the caller decides (the batch-replay behavior, where a
	// late record means the trace is broken).
	DropLate bool
	// CarryFirstSeen keeps each host's first-seen time across window
	// rotations, so the θ_churn new-peer grace period stays anchored at
	// the host's earliest observed activity — the behavior a batch
	// extraction over the whole stream would have — instead of
	// restarting every window. Off, every window is self-contained
	// (the paper's independent per-day windows).
	CarryFirstSeen bool
	// Internal selects monitored initiator addresses (nil = all).
	Internal func(flow.IP) bool
	// StateDir, when set, names the directory where a checkpoint
	// manager persists this engine's snapshots and write-ahead log.
	// The engine itself never touches the filesystem — the field rides
	// on the config so one struct can describe a durable deployment end
	// to end (internal/checkpoint and the plotfind -state-dir flag
	// consume it).
	StateDir string
	// Core tunes the per-window detection pipeline. Core.Metrics, when
	// set, also instruments the engine ("engine/..." stages and
	// window gauges) and the sharded store.
	Core core.Config
	// Detectors, when non-empty, lists the detectors run over every
	// sealed window, in order (the multi-detector framework: the paper
	// pipeline and the mutual-contact community detector are the two
	// stock implementations). Empty means the paper pipeline alone,
	// configured by Core — the original single-detector behavior, bit
	// for bit.
	Detectors []core.Detector
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("engine: Window must be positive, got %v", c.Window)
	}
	if c.Slide < 0 {
		return fmt.Errorf("engine: Slide must be non-negative, got %v", c.Slide)
	}
	if c.Slide > 0 {
		if c.Slide > c.Window {
			return fmt.Errorf("engine: Slide %v exceeds Window %v", c.Slide, c.Window)
		}
		if c.Window%c.Slide != 0 {
			return fmt.Errorf("engine: Window %v is not a multiple of Slide %v", c.Window, c.Slide)
		}
	}
	if c.MaxSkew < 0 {
		return fmt.Errorf("engine: MaxSkew must be non-negative, got %v", c.MaxSkew)
	}
	return c.Core.Validate()
}

// detectors resolves the configured detector list: an empty list means
// the paper pipeline alone, at Core.
func (c *Config) detectors() ([]core.Detector, error) {
	if len(c.Detectors) > 0 {
		return c.Detectors, nil
	}
	pd, err := core.NewPaperDetector(c.Core)
	if err != nil {
		return nil, err
	}
	return []core.Detector{pd}, nil
}

// Result is one sealed detection window's outcome.
type Result struct {
	// Window is the detection window the result covers (half-open).
	Window flow.Window
	// Index is the window's absolute slot number since the stream
	// origin: Window.From == origin + Index*Slide (tumbling:
	// Index*Window). Slots whose windows held no traffic emit nothing,
	// so indices observed by the caller may skip.
	Index int
	// Hosts is the number of monitored hosts with features in the
	// window.
	Hosts int
	// Records is the number of flow records attributed to those hosts.
	Records int
	// Detection is the full FindPlotters outcome over the window, every
	// intermediate stage included — nil when Config.Detectors excludes
	// the paper pipeline. Kept alongside Detections so single-detector
	// consumers need no unwrapping.
	Detection *core.Result
	// Detections holds every configured detector's verdict over the
	// window, in Config.Detectors order (the default configuration runs
	// the paper pipeline alone, so Detections has one element whose
	// Paper field is Detection).
	Detections []*core.Detection
	// Partial marks a window sealed by Flush before the feed reached
	// its nominal end: the result covers only the traffic observed up
	// to the flush frontier, so its verdicts are provisional (the
	// shutdown report of a live deployment, not a completed window).
	Partial bool
}

// WindowedDetector drives continuous detection over a record stream.
// Not safe for concurrent use; feed it from one goroutine (the sharded
// store underneath accepts concurrent Add, but window bookkeeping is
// single-writer by design — one boundary decision per record).
type WindowedDetector struct {
	cfg       Config
	emit      func(*Result) error
	preSeal   func() error // nil, or the hook BeforeSeal registered
	store     *flow.ShardedExtractor
	detectors []core.Detector
	paneDur   time.Duration
	k         int // panes per window (1 = tumbling)

	started  bool
	origin   time.Time
	paneIdx  int       // index of the open pane since origin; set through setPane
	sealAt   int64     // the open pane's end + MaxSkew, Unix ns: a frontier there ends it
	frontier time.Time // latest start time seen (or AdvanceTo watermark)
	recent   []*flow.Pane
	emitted  int
	dropped  int
	flushing bool // inside Flush: mark windows sealed early as Partial

	// Per-record instruments, resolved once: a lookup by name takes the
	// registry mutex, which Add must not do per record.
	records *metrics.Counter // "engine/records"
	drops   *metrics.Counter // "engine/drops"
}

// New creates a windowed detector. emit receives each sealed window's
// result in order; a non-nil error from emit aborts the triggering Add,
// AdvanceTo, or Flush call.
func New(cfg Config, emit func(*Result) error) (*WindowedDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	paneDur := cfg.Window
	k := 1
	if cfg.Slide > 0 && cfg.Slide < cfg.Window {
		paneDur = cfg.Slide
		k = int(cfg.Window / cfg.Slide)
	}
	store := flow.NewShardedExtractorSkew(flow.FeatureOptions{
		Hosts:        cfg.Internal,
		NewPeerGrace: cfg.Core.NewPeerGrace,
	}, cfg.Shards, cfg.MaxSkew).Metrics(cfg.Core.Metrics)
	store.CarryFirstSeen(cfg.CarryFirstSeen)
	detectors, err := cfg.detectors()
	if err != nil {
		return nil, err
	}
	d := &WindowedDetector{
		cfg:       cfg,
		store:     store,
		detectors: detectors,
		paneDur:   paneDur,
		k:         k,
		records:   cfg.Core.Metrics.Counter("engine/records"),
		drops:     cfg.Core.Metrics.Counter("engine/drops"),
	}
	d.emit = counted(&d.emitted, emit)
	cfg.Core.Metrics.Gauge("engine/shards").Set(int64(store.Shards()))
	return d, nil
}

// Store exposes the underlying sharded feature store (live features of
// the open window — e.g. for a metrics endpoint between boundaries).
func (d *WindowedDetector) Store() *flow.ShardedExtractor { return d.store }

// Config returns the configuration the detector was created with (with
// Validate already applied). Checkpointing uses it to fingerprint the
// snapshot so a restore into a differently shaped engine fails loudly.
func (d *WindowedDetector) Config() Config { return d.cfg }

// BeforeSeal registers fn to run at the top of every pane seal — Add's,
// AdvanceTo's or Flush's — before the pane is detached or any window it
// completes is detected; its error aborts the seal and the call. The
// checkpoint manager flushes its write-ahead log here (nil unregisters).
func (d *WindowedDetector) BeforeSeal(fn func() error) { d.preSeal = fn }

// Windows returns how many window results have been emitted.
func (d *WindowedDetector) Windows() int { return d.emitted }

// Dropped returns how many records were dropped for arriving beyond
// MaxSkew, in either error mode — the one drop count ("engine/drops");
// the store's "stream/skew_drops" sees only the pane-boundary share.
func (d *WindowedDetector) Dropped() int { return d.dropped }

func (d *WindowedDetector) paneStart() time.Time {
	return d.origin.Add(time.Duration(d.paneIdx) * d.paneDur)
}

func (d *WindowedDetector) paneEnd() time.Time {
	return d.origin.Add(time.Duration(d.paneIdx+1) * d.paneDur)
}

// setPane moves the open-pane cursor, and with it the frontier Add
// watches for: nearly every record ends no pane, and learns so from one
// integer compare.
func (d *WindowedDetector) setPane(idx int) {
	d.paneIdx = idx
	d.sealAt = d.paneEnd().UnixNano() + int64(d.cfg.MaxSkew)
}

// Add folds one record into the open window, sealing and detecting any
// windows the record's start time proves complete first. Records more
// than MaxSkew behind the frontier are dropped: with ErrLateRecord, or
// silently counted when cfg.DropLate is set. Detection and emit errors
// abort the call either way.
func (d *WindowedDetector) Add(r *flow.Record) error {
	if !d.started {
		d.origin = d.cfg.Origin
		if d.origin.IsZero() {
			d.origin = r.Start
		}
		d.started = true
		d.frontier = r.Start
		if r.Start.Before(d.origin) {
			d.setPane(0)
			return fmt.Errorf("engine: record at %v precedes the window origin %v", r.Start, d.origin)
		}
		d.setPane(int(r.Start.Sub(d.origin) / d.paneDur))
	}
	if r.Start.After(d.frontier) {
		d.frontier = r.Start
	}
	if d.frontier.UnixNano() >= d.sealAt {
		if err := d.advance(d.frontier.Add(-d.cfg.MaxSkew)); err != nil {
			return err
		}
	}
	// Lateness is judged here, against the one frontier, before the store
	// sees the record: a shard's own watermark trails the frontier by
	// however long its hosts were quiet, so judged there the verdict would
	// depend on the shard count. The store's check still guards a pane
	// boundary sealed by AdvanceTo.
	if r.Start.UnixNano() < d.frontier.UnixNano()-int64(d.cfg.MaxSkew) || d.store.Add(r) != nil {
		// The store rejects only late records, and with a static error:
		// the text is built here, and only when somebody will read it.
		d.dropped++
		d.drops.Add(1)
		if d.cfg.DropLate {
			return nil
		}
		return fmt.Errorf("%w: record at %v is more than %v behind the frontier %v",
			ErrLateRecord, r.Start, d.cfg.MaxSkew, d.frontier)
	}
	d.records.Add(1)
	return nil
}

// AdvanceTo declares that no record with a start time before t will
// arrive (stream punctuation: an idle-feed heartbeat, or the known end
// of a batch of traffic), sealing and detecting every window that ends
// at or before t. Unlike record-driven sealing it does not wait out
// MaxSkew — the caller is asserting completeness.
func (d *WindowedDetector) AdvanceTo(t time.Time) error {
	if !d.started {
		return nil
	}
	if t.After(d.frontier) {
		d.frontier = t
	}
	return d.advance(t)
}

// Flush seals the open partial window at the end of the feed, emitting
// its result. The window keeps its nominal bounds; the feed simply
// ended inside it. A window whose nominal end lies past the flush
// frontier is emitted with Result.Partial set — it covers only the
// traffic the feed delivered before stopping.
func (d *WindowedDetector) Flush() error {
	if !d.started {
		return nil
	}
	d.flushing = true
	defer func() { d.flushing = false }()
	if err := d.advance(d.frontier); err != nil {
		return err
	}
	if d.store.Hosts() == 0 && d.store.Pending() == 0 {
		return nil
	}
	return d.sealPane()
}

// advance seals every pane whose end is at or before the watermark.
func (d *WindowedDetector) advance(watermark time.Time) error {
	for d.paneEnd().Compare(watermark) <= 0 {
		if d.storeIdle() && d.ringEmpty() {
			// Fast-forward a silent stretch: every skipped pane is empty
			// and no trailing pane holds data, so no window in between
			// could emit. Jump straight to the pane containing the
			// watermark (a watermark exactly on a boundary lands the
			// cursor on the pane opening there).
			idx := int(watermark.Sub(d.origin) / d.paneDur)
			if idx > d.paneIdx {
				d.setPane(idx)
				d.recent = d.recent[:0]
			}
			if d.paneEnd().After(watermark) {
				return nil
			}
		}
		if err := d.sealPane(); err != nil {
			return err
		}
	}
	return nil
}

func (d *WindowedDetector) storeIdle() bool {
	return d.store.Hosts() == 0 && d.store.Pending() == 0
}

func (d *WindowedDetector) ringEmpty() bool {
	for _, p := range d.recent {
		if p != nil && p.Hosts() > 0 {
			return false
		}
	}
	return true
}

// sealPane closes the open pane: flushes its buffered records, detaches
// its feature state shard by shard, advances the pane cursor, and — if
// the pane completes a detection window — merges, detects, and emits.
func (d *WindowedDetector) sealPane() error {
	if d.preSeal != nil {
		if err := d.preSeal(); err != nil {
			return err
		}
	}
	reg := d.cfg.Core.Metrics
	w := flow.Window{From: d.paneStart(), To: d.paneEnd()}
	t := reg.StartStage("engine/seal")
	d.store.ReleaseBefore(w.To)
	pane := d.store.TakePane(w)
	t.Stop()
	reg.Counter("engine/panes").Add(1)
	sealedIdx := d.paneIdx
	d.setPane(sealedIdx + 1)

	if d.k == 1 {
		if pane.Hosts() == 0 {
			reg.Counter("engine/windows/empty").Add(1)
			return nil
		}
		return d.detect(pane.FeatureSet(), w, sealedIdx)
	}

	// Sliding: the sealed pane completes the window that started k-1
	// panes earlier (once that many exist).
	d.recent = append(d.recent, pane)
	if len(d.recent) > d.k {
		d.recent = d.recent[1:]
	}
	if sealedIdx < d.k-1 {
		return nil
	}
	window := flow.Window{From: w.To.Add(-d.cfg.Window), To: w.To}
	return d.emitMerged(window, sealedIdx-d.k+1)
}

// emitMerged merges the trailing panes into one window and detects.
func (d *WindowedDetector) emitMerged(window flow.Window, index int) error {
	reg := d.cfg.Core.Metrics
	t := reg.StartStage("engine/merge")
	merged := flow.MergePanes(d.cfg.Core.NewPeerGrace, d.recent...)
	t.Stop()
	if merged.Hosts() == 0 {
		reg.Counter("engine/windows/empty").Add(1)
		return nil
	}
	// Re-bound to the nominal window, keeping the contact sets the merge
	// already assembled (the community detector reads them).
	src := flow.NewFeatureSet(merged.Features(), window).WithContacts(merged.Contacts())
	return d.detect(src, window, index)
}

// detect runs the detectors over one sealed window and emits the result.
func (d *WindowedDetector) detect(src *flow.FeatureSet, w flow.Window, index int) error {
	return runWindow(d.cfg.Core.Metrics, "engine/detect", d.detectors, src, &Result{
		Window:  w,
		Index:   index,
		Partial: d.flushing && w.To.After(d.frontier),
	}, d.emit)
}

// counted wraps an engine's emit callback so the window count moves
// before the callback runs: the callback may snapshot the engine, and
// the count is part of the snapshot. A nil emit only counts.
func counted(n *int, emit func(*Result) error) func(*Result) error {
	return func(r *Result) error {
		*n++
		if emit == nil {
			return nil
		}
		return emit(r)
	}
}

// runWindow is the one path from a sealed window to its verdicts, shared
// by the single-process engine and the coordinator-side assembler: run
// every detector over the window's feature source in order, fill res
// (which arrives with its window, index and Partial mark set), report
// the per-window instruments, and emit. stage names the enclosing timer;
// each detector's time lands under stage/<detector>.
func runWindow(reg *metrics.Registry, stage string, detectors []core.Detector, src flow.FeatureSource, res *Result, emit func(*Result) error) error {
	feats := src.Features()
	res.Hosts = len(feats)
	for _, f := range feats {
		res.Records += f.Flows
	}
	t := reg.StartStage(stage)
	res.Detections = make([]*core.Detection, 0, len(detectors))
	for _, det := range detectors {
		dt := t.Child(det.Name())
		detn, err := det.Detect(src)
		dt.Stop()
		if err != nil {
			t.Stop()
			return fmt.Errorf("engine: window %d [%v, %v): %w", res.Index, res.Window.From, res.Window.To, err)
		}
		res.Detections = append(res.Detections, detn)
		if res.Detection == nil && detn.Paper != nil {
			res.Detection = detn.Paper
		}
		reg.Gauge("engine/suspects/" + detn.Detector).Set(int64(len(detn.Suspects)))
	}
	t.Stop()
	reg.Counter("engine/windows").Add(1)
	if res.Partial {
		reg.Counter("engine/windows/partial").Add(1)
	}
	reg.Gauge("engine/window_index").Set(int64(res.Index))
	reg.Gauge("engine/window_hosts").Set(int64(res.Hosts))
	suspects := res.Detections[0].Suspects
	if res.Detection != nil {
		suspects = res.Detection.Suspects
	}
	reg.Gauge("engine/window_suspects").Set(int64(len(suspects)))
	return emit(res)
}
