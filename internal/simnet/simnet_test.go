package simnet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plotters/internal/flow"
)

func start() time.Time {
	return time.Date(2007, time.November, 5, 9, 0, 0, 0, time.UTC)
}

func TestEventOrdering(t *testing.T) {
	s := New(start(), 1)
	var order []int
	s.Schedule(start().Add(3*time.Second), func() { order = append(order, 3) })
	s.Schedule(start().Add(1*time.Second), func() { order = append(order, 1) })
	s.Schedule(start().Add(2*time.Second), func() { order = append(order, 2) })
	s.Run(start().Add(time.Minute))
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
	if !s.Now().Equal(start().Add(time.Minute)) {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New(start(), 1)
	at := start().Add(time.Second)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(at, func() { order = append(order, i) })
	}
	s.Run(start().Add(time.Minute))
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("tie order = %v", order)
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	s := New(start(), 1)
	fired := 0
	s.Schedule(start().Add(time.Second), func() { fired++ })
	s.Schedule(start().Add(time.Hour), func() { fired++ })
	s.Run(start().Add(time.Minute))
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	// An event exactly at the boundary does not fire (half-open window).
	s2 := New(start(), 1)
	s2.Schedule(start().Add(time.Minute), func() { fired++ })
	s2.Run(start().Add(time.Minute))
	if fired != 1 {
		t.Error("boundary event fired")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := New(start(), 1)
	var ticks []time.Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		s.After(10*time.Second, tick)
	}
	s.After(0, tick)
	s.Run(start().Add(35 * time.Second))
	if len(ticks) != 4 { // 0, 10, 20, 30
		t.Fatalf("ticks = %d, want 4", len(ticks))
	}
	if !ticks[3].Equal(start().Add(30 * time.Second)) {
		t.Errorf("last tick = %v", ticks[3])
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New(start(), 1)
	var at time.Time
	s.Schedule(start().Add(-time.Hour), func() { at = s.Now() })
	s.Run(start().Add(time.Second))
	if !at.Equal(start()) {
		t.Errorf("past event ran at %v, want clock start", at)
	}
	s.After(-5*time.Second, func() {})
	if s.Pending() != 1 {
		t.Error("negative After not scheduled")
	}
}

func TestEmitAndRecords(t *testing.T) {
	s := New(start(), 1)
	r := flow.Record{
		Src: 1, Dst: 2, Proto: flow.TCP, State: flow.StateEstablished,
		Start: start(), End: start().Add(time.Second),
	}
	s.Emit(r)
	s.Emit(r)
	got := s.Records()
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	// Sink resets after Records.
	if len(s.Records()) != 0 {
		t.Error("sink not reset")
	}
}

func TestEmitInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid record should panic")
		}
	}()
	s := New(start(), 1)
	s.Emit(flow.Record{}) // zero record is invalid (no proto/state)
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(start(), 42)
		var vals []float64
		var tick func()
		tick = func() {
			vals = append(vals, s.RNG().Float64())
			s.After(time.Duration(1+s.RNG().Intn(10))*time.Second, tick)
		}
		s.After(0, tick)
		s.Run(start().Add(5 * time.Minute))
		return vals
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical seeds produced different runs")
	}
}

func TestFork(t *testing.T) {
	s := New(start(), 7)
	r1 := s.Fork()
	r2 := s.Fork()
	// Forked streams differ from each other (with overwhelming probability).
	same := true
	for i := 0; i < 8; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("forked RNGs produced identical streams")
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	// LogNormalMedian: median of many samples near the requested median.
	n := 20000
	below := 0
	for i := 0; i < n; i++ {
		if LogNormalMedian(rng, 100, 0.8) < 100 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("log-normal median fraction below = %v, want ≈0.5", frac)
	}

	// Pareto: all samples >= xm; mean for alpha=2 is 2·xm.
	var sum float64
	for i := 0; i < n; i++ {
		v := Pareto(rng, 10, 2)
		if v < 10 {
			t.Fatalf("Pareto sample %v below scale", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 18 || mean > 22 {
		t.Errorf("Pareto mean = %v, want ≈20", mean)
	}

	// Exp: mean approximately as requested.
	sum = 0
	for i := 0; i < n; i++ {
		sum += Exp(rng, 30)
	}
	if m := sum / float64(n); m < 28 || m > 32 {
		t.Errorf("Exp mean = %v, want ≈30", m)
	}

	// ExpDur is positive.
	if ExpDur(rng, time.Second) < 0 {
		t.Error("ExpDur negative")
	}

	// UniformDur respects bounds and degenerate ranges.
	for i := 0; i < 1000; i++ {
		d := UniformDur(rng, time.Second, 2*time.Second)
		if d < time.Second || d >= 2*time.Second {
			t.Fatalf("UniformDur out of range: %v", d)
		}
	}
	if d := UniformDur(rng, time.Second, time.Second); d != time.Second {
		t.Errorf("degenerate UniformDur = %v", d)
	}

	// Jitter stays within the fraction band; frac=0 is exact.
	for i := 0; i < 1000; i++ {
		d := Jitter(rng, 10*time.Second, 0.2)
		if d < 8*time.Second || d > 12*time.Second {
			t.Fatalf("Jitter out of band: %v", d)
		}
	}
	if d := Jitter(rng, 10*time.Second, 0); d != 10*time.Second {
		t.Errorf("zero-frac Jitter = %v", d)
	}

	// Bernoulli extremes.
	if Bernoulli(rng, 0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !Bernoulli(rng, 1) {
		t.Error("Bernoulli(1) returned false")
	}
}
