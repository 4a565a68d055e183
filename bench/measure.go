package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter reads the process-wide costs a pass is charged with: wall
// clock, user+system CPU, and heap allocation counts. It is read only
// at pass boundaries (ReadMemStats stops the world).
type meter struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return meter{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// pass is one timed repetition of a workload's input.
type pass struct {
	records int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func passBetween(a, b meter, records int) pass {
	return pass{records: records, wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs, bytes: b.bytes - a.bytes}
}

// liveHeap returns the bytes of reachable heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// writeSyscalls returns the process's cumulative write(2)-family call
// count from /proc/self/io, or false where that file is unavailable.
func writeSyscalls() (uint64, bool) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// quantile returns the q-th quantile of values by linear interpolation
// between order statistics. It returns 0 for an empty input.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
