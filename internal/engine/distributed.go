package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// DistributedDetector is the coordinator-side half of the distributed
// pipeline. Each shard process runs a WindowedDetector over its
// host-hash slice with a core.LocalDetector attached and ships the
// resulting ShardSummary per sealed window; the DistributedDetector
// collects them, decides when a window is complete, and runs the
// detectors over the merged summary — a feature source like any other
// (runWindow). Windows seal per shard by watermark: a shard has reported
// window w once it either offered w's summary or advanced its watermark
// past w's end (proving w was empty on that shard). A window emits only
// when every shard has reported — or when the caller force-seals it
// (timeout, shutdown), in which case the result carries an explicit
// Partial mark. Emission is always in ascending window order.
//
// Safe for concurrent use: the coordinator's per-connection readers all
// feed one detector.
type DistributedDetector struct {
	mu         sync.Mutex
	reg        *metrics.Registry
	shards     int
	emit       func(*Result) error
	detectors  []core.Detector
	watermarks []time.Time
	pending    map[int]*pendingWindow
	maxSealed  int // highest sealed window index (-1 before any)
	emitted    int
}

type pendingWindow struct {
	window flow.Window
	sums   map[int]*core.ShardSummary
}

// NewDistributed creates the coordinator-side detector for a deployment
// of shards shard processes. Only cfg.Core and cfg.Detectors are read;
// Core must match what the shards ran LocalPass with (internal/dist
// enforces that with a config fingerprint at connection time). emit
// receives each completed window's result in ascending window order; a
// non-nil error aborts the triggering Offer, Watermark, SealWindow, or
// Flush.
func NewDistributed(cfg Config, shards int, emit func(*Result) error) (*DistributedDetector, error) {
	if shards < 1 {
		return nil, fmt.Errorf("engine: distributed shards = %d must be >= 1", shards)
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	detectors, err := cfg.detectors()
	if err != nil {
		return nil, err
	}
	d := &DistributedDetector{
		reg:        cfg.Core.Metrics,
		shards:     shards,
		detectors:  detectors,
		watermarks: make([]time.Time, shards),
		pending:    make(map[int]*pendingWindow),
		maxSealed:  -1,
	}
	d.emit = counted(&d.emitted, emit)
	return d, nil
}

// Windows returns how many window results have been emitted.
func (d *DistributedDetector) Windows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.emitted
}

// Pending returns how many windows are collected but not yet sealed.
func (d *DistributedDetector) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// MaxSealed returns the highest sealed window index (-1 before any).
func (d *DistributedDetector) MaxSealed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxSealed
}

// Offer folds one shard's summary for one window index into the
// detector, sealing every window the new watermark completes. It
// returns false for a duplicate — a summary already held for that
// (shard, window), or a window already sealed — which is a normal
// consequence of a shard resending after reconnect, not an error.
func (d *DistributedDetector) Offer(shard, index int, sum *core.ShardSummary) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if shard < 0 || shard >= d.shards {
		return false, fmt.Errorf("engine: summary from shard %d outside [0,%d)", shard, d.shards)
	}
	if sum == nil {
		return false, fmt.Errorf("engine: nil summary from shard %d", shard)
	}
	if sum.Shards != d.shards {
		return false, fmt.Errorf("engine: shard %d summarizes a %d-shard split but this coordinator runs %d shards", shard, sum.Shards, d.shards)
	}
	if sum.Shard != shard {
		return false, fmt.Errorf("engine: summary claims shard %d but arrived attributed to shard %d", sum.Shard, shard)
	}
	// A summary for w proves the shard's frontier passed w's end.
	if sum.Window.To.After(d.watermarks[shard]) && !sum.Partial {
		d.watermarks[shard] = sum.Window.To
	}
	if index <= d.maxSealed {
		return false, d.trySeal()
	}
	pw := d.pending[index]
	if pw == nil {
		pw = &pendingWindow{window: sum.Window, sums: make(map[int]*core.ShardSummary)}
		d.pending[index] = pw
	} else if !pw.window.From.Equal(sum.Window.From) || !pw.window.To.Equal(sum.Window.To) {
		return false, fmt.Errorf("engine: shard %d places window %d at [%v, %v) but other shards place it at [%v, %v) — window geometry disagrees",
			shard, index, sum.Window.From, sum.Window.To, pw.window.From, pw.window.To)
	}
	if _, dup := pw.sums[shard]; dup {
		return false, d.trySeal()
	}
	pw.sums[shard] = sum
	return true, d.trySeal()
}

// Watermark declares that shard will produce no further summary for any
// window ending at or before t (stream punctuation forwarded from the
// shard's engine), sealing every window that completes.
func (d *DistributedDetector) Watermark(shard int, t time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if shard < 0 || shard >= d.shards {
		return fmt.Errorf("engine: watermark from shard %d outside [0,%d)", shard, d.shards)
	}
	if t.After(d.watermarks[shard]) {
		d.watermarks[shard] = t
	}
	return d.trySeal()
}

// SealWindow force-seals one pending window without waiting for the
// remaining shards — the timeout path. The result is marked Partial
// unless every shard had in fact reported. Unknown or already-sealed
// indices are a no-op. Earlier pending windows are sealed first so
// emission order stays ascending.
func (d *DistributedDetector) SealWindow(index int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, idx := range d.pendingOrder() {
		if idx > index {
			break
		}
		if err := d.seal(idx); err != nil {
			return err
		}
	}
	return nil
}

// Flush force-seals every pending window in order — the shutdown path.
func (d *DistributedDetector) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, idx := range d.pendingOrder() {
		if err := d.seal(idx); err != nil {
			return err
		}
	}
	return nil
}

func (d *DistributedDetector) pendingOrder() []int {
	order := make([]int, 0, len(d.pending))
	for idx := range d.pending {
		order = append(order, idx)
	}
	sort.Ints(order)
	return order
}

func (d *DistributedDetector) minWatermark() time.Time {
	min := d.watermarks[0]
	for _, w := range d.watermarks[1:] {
		if w.Before(min) {
			min = w
		}
	}
	return min
}

// trySeal seals every pending window, in ascending index order, whose
// end the slowest shard's watermark has passed. Called with mu held.
func (d *DistributedDetector) trySeal() error {
	min := d.minWatermark()
	for _, idx := range d.pendingOrder() {
		pw := d.pending[idx]
		if pw.window.To.After(min) {
			break
		}
		if err := d.seal(idx); err != nil {
			return err
		}
	}
	return nil
}

// seal merges one pending window's summaries (once), runs the detectors
// over the merge, and emits. Called with mu held.
func (d *DistributedDetector) seal(index int) error {
	pw := d.pending[index]
	delete(d.pending, index)
	if index > d.maxSealed {
		d.maxSealed = index
	}

	partial := false
	sums := make([]*core.ShardSummary, 0, len(pw.sums))
	for shard := 0; shard < d.shards; shard++ {
		if sum, ok := pw.sums[shard]; ok {
			sums = append(sums, sum)
			partial = partial || sum.Partial
			continue
		}
		// No summary: complete if the shard's watermark proves the
		// window empty on it, provisional otherwise (force-seal).
		if pw.window.To.After(d.watermarks[shard]) {
			partial = true
		}
	}
	merged, err := core.MergeSummaries(sums)
	if err != nil {
		return fmt.Errorf("engine: window %d [%v, %v): %w", index, pw.window.From, pw.window.To, err)
	}
	return runWindow(d.reg, "engine/globalpass", d.detectors, merged.FeatureSet(), &Result{
		Window:  pw.window,
		Index:   index,
		Partial: partial,
	}, d.emit)
}
