package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"plotters/internal/core"
	"plotters/internal/flow"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own glue around calls into the program. Group ties the
// spans of one pass together.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Group  int32  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one nil check per call, which is how the untraced
// run pays nothing for the glue.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// body is how many spans the timed passes recorded; what a run's
	// closing flush adds after it is written out but not analysed.
	body int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

const noSpan = int32(-1)

func (t *tracer) begin(name string, parent, group int32) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endOfPasses marks the end of the spans the analyses look at.
func (t *tracer) endOfPasses() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.body = len(t.spans)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: duration
// minus the part direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	if t == nil {
		return self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, t.body)
	for _, s := range t.spans[:t.body] {
		if s.Parent >= 0 && s.End > s.Start {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans[:t.body] {
		if s.End > s.Start {
			self[s.Name] += time.Duration(s.End - s.Start - covered[i])
		}
	}
	return self
}

// durations returns every completed span of the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[:t.body] {
		if s.Name == name && s.End > s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope is where the glue running on one goroutine currently is: the
// open span new children hang under and the pass they belong to. The
// goroutine that owns the scope is the only one that writes it.
type scope struct {
	parent int32
	group  int32
}

// tracedDetector is the timing decorator around a core.Detector.
type tracedDetector struct {
	core.Detector
	tr   *tracer
	name string
	at   *scope
}

func (d *tracedDetector) Detect(src flow.FeatureSource) (*core.Detection, error) {
	id := d.tr.begin(d.name, d.at.parent, d.at.group)
	defer d.tr.end(id)
	return d.Detector.Detect(src)
}

// traceDetectors wraps each detector for a traced run. keepPaper leaves
// the paper detector bare: the distributed engine recognises it by type
// to run GlobalPass over shard sketches, and a wrapper would silently
// reroute it through the monolith.
func traceDetectors(dets []core.Detector, tr *tracer, at *scope, keepPaper bool) []core.Detector {
	if tr == nil {
		return dets
	}
	out := make([]core.Detector, len(dets))
	for i, d := range dets {
		if _, paper := d.(*core.PaperDetector); paper && keepPaper {
			out[i] = d
			continue
		}
		name := "community.detect"
		if d.Name() == core.PaperName {
			name = "core.detect"
		}
		out[i] = &tracedDetector{Detector: d, tr: tr, name: name, at: at}
	}
	return out
}
