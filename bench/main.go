// Command bench is the repository's benchmark: four named workloads
// driven through the real call paths — loopback UDP to a verdict, a
// detection-bound wide population, a two-shard distributed deployment,
// and the analyst's batch run — each checked against a reference, with
// a second, traced run that attributes the time to layers.
//
//	bench --workload live-v5 --seed 42 --seconds 10 --trace 0
//	bench --workload live-v5 --seed 42 --seconds 10 --trace 1
//	bench -runs 10 -results bench/results/BENCH_x.json
//	bench -compare A.json B.json
//
// See README.md in this directory for the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"plotters/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     string
	outDir   string
	update   bool
	compare  bool
	runs     int
	results  string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: live-v5, detect-wide, dist-2shard or batch-day (empty with -runs: all four)")
	fs.Int64Var(&o.seed, "seed", expectedSeed, "input seed; 42 is also checked against the committed expected.json")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed passes run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics with tracing off")
	fs.StringVar(&o.size, "size", "full", "input scale: full or smoke")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "scratch directory for state, traces and span files")
	fs.BoolVar(&o.update, "update", false, "rewrite bench/expected.json from this run (seed 42 only)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare A.json B.json")
	fs.IntVar(&o.runs, "runs", 0, "with -results: runs per workload, each on its own seed starting at -seed")
	fs.StringVar(&o.results, "results", "", "write a result set (every workload, -runs seeds each, one traced run) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result-set files")
			return 2
		}
		var regressed bool
		regressed, err = compareSets(fs.Arg(0), fs.Arg(1), stdout)
		if err == nil && regressed {
			return 1
		}
	case o.results != "":
		err = writeResultSet(o, stderr)
	default:
		var rep *report
		rep, err = measure(o, stderr)
		if rep != nil {
			line, _ := json.Marshal(rep) // a map of floats and three scalars cannot fail to encode
			fmt.Fprintf(stdout, "%s\n", line)
			if err == nil && !rep.Correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSeconds is BENCHMARK.json's run_seconds. With set-up, the warm-up
// pass and the state measurement a run takes 24 s (32 s on detect-wide),
// so the driver's 92 runs and two builds take about 2,400 of the 3,420
// seconds they may.
const runSeconds = 20

// An end-to-end run sets its workload up at least setupRuns times and
// for at least setupFor: eight times on the day workloads, three on
// detect-wide.
const (
	setupRuns = 3
	setupFor  = 3 * time.Second
)

// measure runs one workload once and returns its report. A nil report
// means the run could not be made at all.
func measure(o options, log io.Writer) (*report, error) {
	sz, ok := sizes[o.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", o.size)
	}
	if o.workload == "" {
		return nil, fmt.Errorf("-workload is required (one of %v)", workloadNames)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	// Set-up is repeated and its median reported: one reading of half
	// a second is at the mercy of whatever else the box is doing. The
	// traced run does not report it and sets up once.
	var wl workload
	var err error
	var setups []float64
	for began := time.Now(); ; {
		if wl, err = newWorkload(o.workload, env{seed: o.seed, sz: sz, outDir: o.outDir}); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if o.trace != 0 || len(setups) >= setupRuns && time.Since(began) >= setupFor {
			break
		}
	}
	if c, ok := wl.(interface{ cleanup() }); ok {
		defer c.cleanup()
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(log, "%s seed %d size %s: %d records per pass, %d reference windows, set-up %.2fs (median of %.2f)\n",
		o.workload, o.seed, sz.name, len(wl.passRecords()), len(wl.refs()), median(setups), setups)

	values := map[string]float64{}
	var defs []metricDef
	var res *result
	if o.trace == 0 {
		defs = endToEnd
		values["setup_s"] = median(setups)
		if values["state_bytes_per_host"], err = wl.stateBytesPerHost(); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		if res, err = wl.run(budget, nil, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		endToEndValues(res, values, log)
	} else {
		defs = perLayer
		if res, err = traced(o, wl, budget, values, log); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
	}

	rep := &report{Metrics: map[string]metricValue{}}
	var problems []string
	rep.Attempted, rep.Failed, problems = res.check(wl.refs(), len(wl.passRecords()))
	if o.seed == expectedSeed {
		more, err := checkExpected(o, sz, wl.refs())
		if err != nil {
			return nil, err
		}
		rep.Failed += len(more)
		problems = append(problems, more...)
	}
	rep.Correct = rep.Failed == 0
	for _, p := range problems {
		fmt.Fprintf(log, "  MISMATCH %s\n", p)
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(log, "  %-40s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(log, "  %d timed passes, %d windows checked, failed %d of %d\n", len(res.passes), res.passesRun*len(wl.refs()), rep.Failed, rep.Attempted)
	return rep, nil
}

// endToEndValues reduces the timed passes to the end-to-end metrics —
// each is the median of the per-pass values — and logs the quartiles
// and sample counts behind the timings.
func endToEndValues(res *result, v map[string]float64, log io.Writer) {
	rate := res.rates()
	var cpuUS, mallocs, bytes []float64
	for _, p := range res.passes {
		n := float64(p.records)
		cpuUS = append(cpuUS, float64(p.cpu)/float64(time.Microsecond)/n)
		mallocs = append(mallocs, float64(p.mallocs)/n)
		bytes = append(bytes, float64(p.bytes)/n)
	}
	closes := durationsMS(res.closeLatencies())
	v["records_per_s"] = median(rate)
	v["cpu_us_per_record"] = median(cpuUS)
	v["allocs_per_record"] = median(mallocs)
	v["alloc_bytes_per_record"] = median(bytes)
	v["window_close_ms_p50"] = median(closes)
	for _, s := range []struct {
		name   string
		values []float64
	}{{"records_per_s", rate}, {"cpu_us_per_record", cpuUS}, {"window_close_ms", closes}} {
		fmt.Fprintf(log, "  %-20s n=%-3d min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g\n", s.name, len(s.values),
			quantile(s.values, 0), quantile(s.values, 0.25), median(s.values), quantile(s.values, 0.75), quantile(s.values, 1))
	}
	fmt.Fprintf(log, "  records_per_s by pass: %.0f\n", rate)
}

// traced is the second kind of run: the workload once with tracing off
// and once with spans and a registry attached, each for half the
// budget, then the isolated layer probes.
func traced(o options, wl workload, budget time.Duration, v map[string]float64, log io.Writer) (*result, error) {
	plain, err := wl.run(budget/2, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, failed, problems := plain.check(wl.refs(), len(wl.passRecords())); failed > 0 {
		return nil, fmt.Errorf("untraced half failed the reference: %v", problems)
	}
	tr, reg := newTracer(), metrics.New()
	res, err := wl.run(budget/2, tr, reg)
	if err != nil {
		return nil, err
	}
	probe, err := probeLayers(wl.passRecords(), o.outDir)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, x := range probe {
		v[k] = x
	}
	for k, x := range res.layer {
		v[k] = x
	}
	snap := res.snap
	v["collector.queue_high_water"] = float64(snap.Gauges["collector/queue/high_water"])
	v["collector.drops"] = float64(snap.Counters["collector/packets/dropped"])
	v["engine.windows"] = float64(snap.Counters["engine/windows"])
	v["engine.late_drops"] = float64(snap.Counters["engine/drops"])
	v["dist.frames"] = float64(snap.Counters["dist/frames"])
	v["dist.frames_resent"] = float64(snap.Counters["dist/dup_frames"])
	v["core.detect_ms_p50"] = median(durationsMS(tr.durations("core.detect")))
	if paper := stage(snap, "engine/globalpass/findplotters"); paper.Count > 0 {
		// The distributed engine runs the paper detector bare (see
		// traceDetectors), so its time comes from the program's timer.
		v["core.detect_ms_p50"] = paper.MeanSeconds * 1e3
	}
	v["community.detect_ms_p50"] = median(durationsMS(tr.durations("community.detect")))
	layerShares(o.workload, tr, res, probe, v)

	v["trace.overhead_ratio"] = median(plain.rates()) / median(res.rates())
	v["trace.spans"] = float64(tr.body)

	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "  %d spans written to %s\n", len(tr.spans), path)
	printShares(o.workload, v, log)
	return res, nil
}

// printShares names the bounding layer and restates the interaction
// rules the shares are read with.
func printShares(name string, v map[string]float64, log io.Writer) {
	type row struct {
		layer string
		share float64
	}
	var rows []row
	for _, d := range perLayer {
		if d.name == d.layer+".self_share" {
			rows = append(rows, row{d.layer, v[d.name]})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	fmt.Fprintf(log, "  layer shares of the traced wall on %s (bounding layer first):\n", name)
	for _, r := range rows {
		if r.share > 0 {
			fmt.Fprintf(log, "    %-12s %6.1f%%\n", r.layer, 100*r.share)
		}
	}
	fmt.Fprintln(log, "  reading them: on live-v5 one worker runs WAL, extract, seal and detect in series, so only the")
	fmt.Fprintln(log, "  largest share under the Handler bounds records_per_s; a faster smaller layer moves cpu_us_per_record")
	fmt.Fprintln(log, "  alone. Detection is synchronous: window_close_ms is the seal plus the detectors' self times, and on")
	fmt.Fprintln(log, "  detect-wide the same time is lost to ingest, so closing windows asynchronously should raise")
	fmt.Fprintln(log, "  records_per_s there and leave window_close_ms_p50 alone.")
}

// checkExpected compares the seed-42 reference with the committed one,
// or rewrites it under -update.
func checkExpected(o options, sz size, refs []windowRef) ([]string, error) {
	if o.update {
		return nil, updateExpected(sz.name, o.workload, refs)
	}
	set, err := loadExpected()
	if err != nil {
		return nil, err
	}
	want, ok := set[sz.name][o.workload]
	if !ok {
		return []string{fmt.Sprintf("expected.json has no %s/%s entry; run with -update", sz.name, o.workload)}, nil
	}
	var problems []string
	if len(want) != len(refs) {
		problems = append(problems, fmt.Sprintf("expected.json pins %d windows, the reference computed %d", len(want), len(refs)))
	}
	for i := 0; i < len(want) && i < len(refs); i++ {
		if !want[i].equal(refs[i]) {
			problems = append(problems, fmt.Sprintf("expected.json window %d: pinned %+v, reference computed %+v", i, want[i], refs[i]))
		}
	}
	return problems, nil
}
