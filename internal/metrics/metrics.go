// Package metrics is the pipeline's instrumentation layer: named atomic
// counters, gauges, and stages — the one duration instrument: how many
// times something ran and its total, min and max duration, fed by
// nestable stage timers or by Stage.Observe — collected in a Registry
// whose point-in-time Snapshot, the one way to read them, serializes to
// JSON and to Prometheus/expvar-style text.
//
// The package is built for a hot detection path at a busy border:
//
//   - A nil *Registry is a valid no-op sink. Every instrument it hands
//     out is nil, and every method on a nil instrument returns
//     immediately — instrumented code needs no "is monitoring on?"
//     branches of its own, and the disabled cost is one nil check.
//   - Recording is allocation-free: Counter.Add, Gauge.Set/SetMax,
//     Stage.Observe, and StageTimer.Stop touch only atomics.
//     Instruments are meant to be looked up once (outside loops) and
//     used many times.
//   - Everything is safe for concurrent use; distmatrix workers hammer
//     the same counters from every CPU.
//
// Names are slash-separated paths ("pipeline/hm/matrix"); the slashes
// give stage timers their nesting structure and are mapped to
// underscores in the Prometheus text exposition.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Gauge is an instantaneous atomic value. The zero value is ready to
// use; a nil Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update (e.g. the most entries a queue held).
// No-op on a nil receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// minUnset marks a Stage that has not observed anything yet; any real
// duration ratchets the min below it.
const minUnset = int64(^uint64(0) >> 1) // math.MaxInt64 without the import

// Stage accumulates wall-time statistics for one named pipeline stage:
// how many times it ran and the total/min/max duration. Create stages
// through Registry.Stage; a nil Stage discards all updates.
type Stage struct {
	count atomic.Int64
	total atomic.Int64
	min   atomic.Int64 // minUnset until the first observation
	max   atomic.Int64
}

// newStage returns a Stage with the min sentinel armed.
func newStage() *Stage {
	s := &Stage{}
	s.min.Store(minUnset)
	return s
}

// Observe records one completed run of the stage. No-op on a nil
// receiver.
func (s *Stage) Observe(d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	s.total.Add(ns)
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := s.min.Load()
		if ns >= cur || s.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	s.count.Add(1)
}

// StageTimer times one run of a named stage. It is a value type — no
// allocation per timing — and the zero StageTimer (from a nil Registry)
// is a no-op.
type StageTimer struct {
	reg   *Registry
	name  string
	start time.Time
}

// Stop records the elapsed time since StartStage and returns it. A
// zero/no-op timer returns 0.
func (t StageTimer) Stop() time.Duration {
	if t.reg == nil {
		return 0
	}
	d := time.Since(t.start)
	t.reg.Stage(t.name).Observe(d)
	return d
}

// Child starts a nested stage named "<parent>/<name>", so a pipeline
// stage can time its own sub-phases under its prefix. On a no-op timer
// it returns another no-op timer.
func (t StageTimer) Child(name string) StageTimer {
	if t.reg == nil {
		return StageTimer{}
	}
	return t.reg.StartStage(t.name + "/" + name)
}

// Registry is a named collection of instruments. The zero value is not
// used directly — call New — but a nil *Registry is a fully functional
// no-op sink: all lookups return nil instruments and StartStage returns
// a no-op timer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	stages   map[string]*Stage
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		stages:   make(map[string]*Stage),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Stage returns the named stage accumulator, creating it on first use.
// Returns nil (a no-op stage) on a nil registry.
func (r *Registry) Stage(name string) *Stage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.stages[name]
	if !ok {
		s = newStage()
		r.stages[name] = s
	}
	return s
}

// StartStage begins timing one run of the named stage. On a nil
// registry it returns a no-op timer without reading the clock.
func (r *Registry) StartStage(name string) StageTimer {
	if r == nil {
		return StageTimer{}
	}
	return StageTimer{reg: r, name: name, start: time.Now()}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
