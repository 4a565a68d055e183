package metrics

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil registry must be a complete no-op sink: nil instruments, no-op
// timers, an empty snapshot, and no panics anywhere.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Gauge("g").Set(7)
	r.Gauge("g").SetMax(9)
	r.Stage("s").Observe(time.Second)
	timer := r.StartStage("x")
	if d := timer.Stop(); d != 0 {
		t.Errorf("no-op timer returned %v", d)
	}
	if d := timer.Child("y").Stop(); d != 0 {
		t.Errorf("no-op child timer returned %v", d)
	}
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Stage("s") != nil {
		t.Error("nil registry handed out a non-nil instrument")
	}
	snap := r.TakeSnapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Stages) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("flows")
	c.Add(3)
	c.Add(4)
	if v := r.TakeSnapshot().Counters["flows"]; v != 7 {
		t.Errorf("counter = %d, want 7", v)
	}
	if r.Counter("flows") != c {
		t.Error("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.SetMax(5) // lower: must not move
	if v := r.TakeSnapshot().Gauges["depth"]; v != 10 {
		t.Errorf("SetMax lowered gauge to %d", v)
	}
	g.SetMax(12)
	if v := r.TakeSnapshot().Gauges["depth"]; v != 12 {
		t.Errorf("SetMax did not raise gauge: %d", v)
	}
}

func TestStageStats(t *testing.T) {
	r := New()
	s := r.Stage("hm")
	s.Observe(10 * time.Millisecond)
	s.Observe(30 * time.Millisecond)
	s.Observe(20 * time.Millisecond)
	snap := r.TakeSnapshot()
	if len(snap.Stages) != 1 {
		t.Fatalf("stages = %+v", snap.Stages)
	}
	st := snap.Stages[0]
	if st.Name != "hm" || st.Count != 3 {
		t.Errorf("stage snapshot = %+v", st)
	}
	if st.TotalSeconds != 0.06 {
		t.Errorf("total = %v, want 0.06", st.TotalSeconds)
	}
	if st.MinSeconds != 0.01 || st.MaxSeconds != 0.03 {
		t.Errorf("min/max = %v/%v, want 0.01/0.03", st.MinSeconds, st.MaxSeconds)
	}
	if st.MeanSeconds < 0.0199 || st.MeanSeconds > 0.0201 {
		t.Errorf("mean = %v, want 0.02", st.MeanSeconds)
	}
}

func TestStageTimerNesting(t *testing.T) {
	r := New()
	outer := r.StartStage("pipeline")
	inner := outer.Child("matrix")
	time.Sleep(time.Millisecond)
	if d := inner.Stop(); d <= 0 {
		t.Errorf("inner elapsed %v", d)
	}
	if d := outer.Stop(); d <= 0 {
		t.Errorf("outer elapsed %v", d)
	}
	snap := r.TakeSnapshot()
	names := make([]string, len(snap.Stages))
	for i, s := range snap.Stages {
		names[i] = s.Name
	}
	want := []string{"pipeline", "pipeline/matrix"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("stage names = %v, want %v", names, want)
	}
}

// Concurrent hammering under -race: one counter, one high-water gauge,
// one stage from many goroutines.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	s := r.Stage("s")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.SetMax(int64(w*per + i))
				s.Observe(time.Duration(i+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	snap := r.TakeSnapshot()
	if v := snap.Counters["c"]; v != workers*per {
		t.Errorf("counter = %d, want %d", v, workers*per)
	}
	if v := snap.Gauges["g"]; v != workers*per-1 {
		t.Errorf("gauge high-water = %d, want %d", v, workers*per-1)
	}
	if n := snap.Stages[0].Count; n != workers*per {
		t.Errorf("stage count = %d, want %d", n, workers*per)
	}
	if snap.Stages[0].MinSeconds != 1e-6 {
		t.Errorf("stage min = %v, want 1µs", snap.Stages[0].MinSeconds)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("flowio/binary/records").Add(42)
	r.Gauge("pipeline/hosts/analyzed").Set(360)
	r.Stage("pipeline/hm").Observe(123 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.TakeSnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters["flowio/binary/records"] != 42 {
		t.Errorf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Gauges["pipeline/hosts/analyzed"] != 360 {
		t.Errorf("gauge lost in round trip: %+v", back.Gauges)
	}
	if len(back.Stages) != 1 || back.Stages[0].Name != "pipeline/hm" || back.Stages[0].Count != 1 {
		t.Errorf("stages lost in round trip: %+v", back.Stages)
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.Counter("flowio/binary/records").Add(7)
	r.Gauge("stream/pending_highwater").Set(12)
	r.Stage("pipeline/hm/matrix").Observe(time.Millisecond)
	r.Stage("pipeline/hm/matrix").Observe(-time.Second) // clamps to 0
	var buf bytes.Buffer
	if err := r.TakeSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"plotters_flowio_binary_records_total 7",
		"plotters_stream_pending_highwater 12",
		"plotters_pipeline_hm_matrix_seconds_total",
		"plotters_pipeline_hm_matrix_count 2",
		"plotters_pipeline_hm_matrix_min_seconds 0\n",
		"plotters_pipeline_hm_matrix_max_seconds 0.001\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("c").Add(1)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := text.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(text.String(), "plotters_c_total 1") {
		t.Errorf("text endpoint: %q", text.String())
	}

	resp, err = srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("json endpoint: %v", err)
	}
	if snap.Counters["c"] != 1 {
		t.Errorf("json snapshot = %+v", snap)
	}
}

// Recording on pre-fetched instruments must not allocate — the
// pipeline's hot loops depend on it.
func TestHotPathAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	s := r.Stage("s")
	for name, fn := range map[string]func(){
		"counter": func() { c.Add(1) },
		"gauge":   func() { g.SetMax(3) },
		"stage":   func() { s.Observe(time.Microsecond) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per op", name, allocs)
		}
	}
}
