// Command benchgate turns `go test -bench` output into a CI pass/fail
// decision. benchstat is great at displaying deltas but was not built
// to gate on them; benchgate is the opposite — no statistics beyond
// min-of-counts, just a hard threshold with a machine-readable exit
// code. CI runs both: benchstat for the humans reading the job summary,
// benchgate for the red X.
//
// Two modes:
//
//	benchgate -old base.txt -new head.txt [-threshold 1.10]
//	    Regression gate. For every benchmark name present in BOTH files,
//	    fail if head's best (minimum) ns/op exceeds base's best by more
//	    than the threshold factor. Names only in one file are reported
//	    but never fail the gate — new benchmarks must not break the PR
//	    that introduces them.
//
//	benchgate -new head.txt -zero-allocs 'IngestPipeline'
//	    Allocation gate within one file. Every benchmark whose name
//	    matches the regexp must report exactly 0 allocs/op in every
//	    repetition — the steady-state zero-allocation contract of the
//	    ingest hot path. A matching benchmark that does not report
//	    allocs/op at all (missing -benchmem / ReportAllocs) fails too:
//	    an unmeasured contract is a broken gate, not a passing one.
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix the testing package appends, so runs from machines with
// different core counts still compare. With -count=N, the minimum ns/op
// across repetitions is used: the minimum is the least noisy estimator
// of a benchmark's true cost on a shared CI runner, where interference
// only ever adds time.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkHMTest/n=1024/par-4   1   77618112 ns/op   6.8e+06 pairs/s
//
// capturing the name (with GOMAXPROCS suffix) and the ns/op value.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9][0-9.eE+-]*) ns/op`)

// procSuffix is the -GOMAXPROCS tail appended to sub-benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// allocsField matches the allocs/op column -benchmem / ReportAllocs
// appends to a result line.
var allocsField = regexp.MustCompile(`\s(\d+) allocs/op`)

// parseBench reads a -bench output file into name → minimum ns/op.
func parseBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	best := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op %q: %v", path, m[2], err)
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		if cur, ok := best[name]; !ok || ns < cur {
			best[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return best, nil
}

// parseAllocs reads a -bench output file into name → maximum allocs/op
// across repetitions (the maximum, because a single allocating rep
// breaks a zero-allocation contract). Benchmarks that never report
// allocs/op map to -1 so the gate can flag them as unmeasured.
func parseAllocs(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	worst := make(map[string]int64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		allocs := int64(-1)
		if am := allocsField.FindStringSubmatch(line); am != nil {
			n, err := strconv.ParseInt(am[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad allocs/op %q: %v", path, am[1], err)
			}
			allocs = n
		}
		if cur, ok := worst[name]; !ok || allocs > cur {
			worst[name] = allocs
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(worst) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return worst, nil
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gateRegression compares common names across two files; returns the
// number of failures.
func gateRegression(oldB, newB map[string]float64, threshold float64) int {
	failures := 0
	for _, name := range sortedNames(newB) {
		base, ok := oldB[name]
		if !ok {
			fmt.Printf("  new    %-52s %12.0f ns/op (no baseline; not gated)\n", name, newB[name])
			continue
		}
		head := newB[name]
		ratio := head / base
		verdict := "ok    "
		if head > base*threshold {
			verdict = "FAIL  "
			failures++
		}
		fmt.Printf("  %s %-52s %12.0f → %12.0f ns/op  (%+.1f%%)\n",
			verdict, name, base, head, (ratio-1)*100)
	}
	for _, name := range sortedNames(oldB) {
		if _, ok := newB[name]; !ok {
			fmt.Printf("  gone   %-52s (present in baseline only; not gated)\n", name)
		}
	}
	return failures
}

// gateZeroAllocs enforces 0 allocs/op on every matching benchmark;
// returns the number of failures and how many names matched.
func gateZeroAllocs(allocs map[string]int64, match *regexp.Regexp) (failures, matched int) {
	names := make([]string, 0, len(allocs))
	for n := range allocs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if !match.MatchString(name) {
			continue
		}
		matched++
		switch n := allocs[name]; {
		case n < 0:
			fmt.Printf("  FAIL   %-52s allocs/op not reported (missing -benchmem?)\n", name)
			failures++
		case n > 0:
			fmt.Printf("  FAIL   %-52s %d allocs/op, want 0\n", name, n)
			failures++
		default:
			fmt.Printf("  ok     %-52s 0 allocs/op\n", name)
		}
	}
	return failures, matched
}

func main() {
	oldPath := flag.String("old", "", "baseline -bench output file (regression mode)")
	newPath := flag.String("new", "", "candidate -bench output file (required)")
	threshold := flag.Float64("threshold", 1.10, "fail when candidate ns/op exceeds reference × threshold")
	zeroAllocs := flag.String("zero-allocs", "", "regexp selecting benchmarks that must report 0 allocs/op (allocation mode)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
		os.Exit(2)
	}
	if *newPath == "" {
		fail("-new is required")
	}
	if (*oldPath != "") == (*zeroAllocs != "") {
		fail("exactly one of -old (regression mode) or -zero-allocs (allocation mode) must be set")
	}

	var failures int
	if *oldPath != "" {
		newB, err := parseBench(*newPath)
		if err != nil {
			fail("%v", err)
		}
		oldB, err := parseBench(*oldPath)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchgate: regression gate, threshold %.2fx (min over repetitions)\n", *threshold)
		failures = gateRegression(oldB, newB, *threshold)
	} else {
		re, err := regexp.Compile(*zeroAllocs)
		if err != nil {
			fail("bad -zero-allocs regexp: %v", err)
		}
		allocs, err := parseAllocs(*newPath)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchgate: allocation gate, %q must report 0 allocs/op (max over repetitions)\n", *zeroAllocs)
		var matched int
		failures, matched = gateZeroAllocs(allocs, re)
		if matched == 0 {
			fail("no benchmark matched -zero-allocs %q", *zeroAllocs)
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) failed the gate\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gates passed")
}
