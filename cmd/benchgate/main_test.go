package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// writeBench drops a synthetic -bench output file and returns its path.
func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sample = `goos: linux
goarch: amd64
pkg: plotters
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHMTest/n=1024/par-4         	       1	103000000 ns/op	   5.1e+06 pairs/s
BenchmarkHMTest/n=1024/par-4         	       1	 99000000 ns/op	   5.3e+06 pairs/s
BenchmarkHMTest/n=1024/par-pruned-4  	       1	 77000000 ns/op	   6.8e+06 pairs/s
BenchmarkHMTest/n=1024/par-pruned-4  	       1	 81000000 ns/op	   6.5e+06 pairs/s
PASS
ok  	plotters	2.563s
`

// TestParseBench pins the three parsing behaviours the gates rely on:
// GOMAXPROCS suffixes are stripped, repetitions collapse to the
// minimum, and non-result lines are ignored.
func TestParseBench(t *testing.T) {
	b, err := parseBench(writeBench(t, "sample.txt", sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 {
		t.Fatalf("parsed %d names, want 2: %v", len(b), b)
	}
	if got := b["BenchmarkHMTest/n=1024/par"]; got != 99000000 {
		t.Errorf("par min = %v, want 99000000", got)
	}
	if got := b["BenchmarkHMTest/n=1024/par-pruned"]; got != 77000000 {
		t.Errorf("pruned min = %v, want 77000000", got)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(writeBench(t, "empty.txt", "PASS\nok plotters 1s\n")); err == nil {
		t.Error("expected error on file with no benchmark lines")
	}
}

// TestGateRegression: a 5% slowdown passes a 1.10 gate, a 20% slowdown
// fails it, and names unique to either side never count as failures.
func TestGateRegression(t *testing.T) {
	oldB := map[string]float64{"A": 100, "B": 100, "Gone": 50}
	newB := map[string]float64{"A": 105, "B": 120, "New": 10}
	if got := gateRegression(oldB, newB, 1.10); got != 1 {
		t.Errorf("failures = %d, want 1 (only B regresses past 10%%)", got)
	}
	if got := gateRegression(oldB, newB, 1.25); got != 0 {
		t.Errorf("failures = %d, want 0 at a 1.25 threshold", got)
	}
}

const allocsSample = `goos: linux
BenchmarkIngestPipeline/proto=v5-4       	     100	       744 ns/op	1966.66 MB/s	  40300372 records/s	       0 B/op	       0 allocs/op
BenchmarkIngestPipeline/proto=v5-4       	     100	       750 ns/op	1950.00 MB/s	  40100000 records/s	       0 B/op	       0 allocs/op
BenchmarkIngestPipeline/proto=ipfix-4    	     100	      3716 ns/op	 441.38 MB/s	   8074044 records/s	       0 B/op	       0 allocs/op
BenchmarkLeaky/alloc-4                   	     100	       500 ns/op	      48 B/op	       2 allocs/op
BenchmarkHMTest/n=1024/par-4             	       1	103000000 ns/op	   5.1e+06 pairs/s
PASS
`

// TestParseAllocs pins the allocation parsing the zero-allocs gate
// relies on: repetitions collapse to the maximum, and benchmarks
// without an allocs/op column map to -1 (unmeasured).
func TestParseAllocs(t *testing.T) {
	a, err := parseAllocs(writeBench(t, "allocs.txt", allocsSample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"BenchmarkIngestPipeline/proto=v5":    0,
		"BenchmarkIngestPipeline/proto=ipfix": 0,
		"BenchmarkLeaky/alloc":                2,
		"BenchmarkHMTest/n=1024/par":          -1,
	}
	if len(a) != len(want) {
		t.Fatalf("parsed %d names, want %d: %v", len(a), len(want), a)
	}
	for name, n := range want {
		if got := a[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestGateZeroAllocs: zero-alloc benchmarks pass, an allocating one
// fails, and an unmeasured one (no allocs/op column) fails too rather
// than passing silently.
func TestGateZeroAllocs(t *testing.T) {
	allocs := map[string]int64{
		"BenchmarkIngestPipeline/proto=v5":    0,
		"BenchmarkIngestPipeline/proto=ipfix": 0,
		"BenchmarkLeaky/alloc":                2,
		"BenchmarkUnmeasured":                 -1,
	}
	failures, matched := gateZeroAllocs(allocs, regexp.MustCompile(`IngestPipeline`))
	if matched != 2 || failures != 0 {
		t.Errorf("IngestPipeline: failures=%d matched=%d, want 0/2", failures, matched)
	}
	failures, matched = gateZeroAllocs(allocs, regexp.MustCompile(`Leaky`))
	if matched != 1 || failures != 1 {
		t.Errorf("Leaky: failures=%d matched=%d, want 1/1", failures, matched)
	}
	failures, matched = gateZeroAllocs(allocs, regexp.MustCompile(`Unmeasured`))
	if matched != 1 || failures != 1 {
		t.Errorf("Unmeasured: failures=%d matched=%d, want 1/1", failures, matched)
	}
}
