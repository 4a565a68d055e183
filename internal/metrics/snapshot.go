package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of every instrument in a registry,
// shaped for serialization: counters and gauges as name→value maps,
// stages as a name-sorted list. A Snapshot of a nil registry is empty
// but valid.
type Snapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Stages   []StageSnapshot  `json:"stages,omitempty"`
}

// StageSnapshot is one stage's accumulated timing.
type StageSnapshot struct {
	Name         string  `json:"name"`
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// TakeSnapshot copies the registry's current state. Safe to call while
// instruments are being updated; each instrument is read atomically
// (the snapshot as a whole is not a single atomic cut, which run
// reports do not need).
func (r *Registry) TakeSnapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	stages := make(map[string]*Stage, len(r.stages))
	for k, v := range r.stages {
		stages[k] = v
	}
	r.mu.Unlock()

	snap := Snapshot{}
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for name, c := range counters {
			snap.Counters[name] = c.v.Load()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for name, g := range gauges {
			snap.Gauges[name] = g.v.Load()
		}
	}
	for _, name := range sortedKeys(stages) {
		s := stages[name]
		count := s.count.Load()
		total := time.Duration(s.total.Load()).Seconds()
		ss := StageSnapshot{
			Name:         name,
			Count:        count,
			TotalSeconds: total,
			MaxSeconds:   time.Duration(s.max.Load()).Seconds(),
		}
		if count > 0 {
			ss.MeanSeconds = total / float64(count)
			ss.MinSeconds = time.Duration(s.min.Load()).Seconds()
		}
		snap.Stages = append(snap.Stages, ss)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// metricName maps a slash-separated instrument name onto one flat
// Prometheus-compatible metric name under the plotters_ namespace.
func metricName(name string) string {
	var b strings.Builder
	b.WriteString("plotters_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteText writes the snapshot in Prometheus/expvar-style text
// exposition: one "name value" line per sample, counters suffixed
// _total, stages expanded into _seconds_total/_count/_min_seconds/
// _max_seconds.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%s_total %d\n", metricName(name), s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%s %d\n", metricName(name), s.Gauges[name])
	}
	for _, st := range s.Stages {
		m := metricName(st.Name)
		fmt.Fprintf(&b, "%s_seconds_total %g\n", m, st.TotalSeconds)
		fmt.Fprintf(&b, "%s_count %d\n", m, st.Count)
		fmt.Fprintf(&b, "%s_min_seconds %g\n", m, st.MinSeconds)
		fmt.Fprintf(&b, "%s_max_seconds %g\n", m, st.MaxSeconds)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an HTTP handler exposing the registry: Prometheus
// text by default, JSON with ?format=json (or an Accept header asking
// for application/json). Works on a nil registry (serves an empty
// snapshot).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.TakeSnapshot()
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := snap.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
