package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateJSON = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalogue")

const benchmarkJSON = "../BENCHMARK.json"

// The builder contract's limits on BENCHMARK.json.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkDoc struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

var workloadWhy = map[string]string{
	"live-v5":     "Shipped durable live path: loopback UDP v5, collector, WAL, windowed engine, both detectors. Recv, decode, WAL and extract do the work; detection is small. Closed loop, 64 in flight, credit per 32.",
	"detect-wide": "8,192-host seeded population fed straight to the engine, one window per pass: the theta_hm distance matrix and clustering take about half the wall. No socket, no WAL: ingest changes must not move it.",
	"dist-2shard": "The same day routed by host hash into two shard workers and a coordinator over loopback TCP: LocalPass sketches, wire frames, MergeSummaries, GlobalPass. Extract-bound; no WAL, no UDP.",
	"batch-day":   "The analyst path: flowio binary trace, batch ExtractFeatureSet, monolithic FindPlotters plus community. The same layers used the other way, and the only workload where flowio matters.",
}

// catalogueDoc is BENCHMARK.json as the Go tables define it.
func catalogueDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadNames {
		doc.Workloads = append(doc.Workloads, jsonWorkload{Name: name, Why: workloadWhy[name]})
	}
	for _, d := range endToEnd {
		bound := d.bound
		doc.EndToEnd = append(doc.EndToEnd, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jsonMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return doc
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := json.MarshalIndent(catalogueDoc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *updateJSON {
		if err := os.WriteFile(benchmarkJSON, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatalf("%v (run go test -run BenchmarkJSON -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of step with the catalogue in metrics.go; run go test -run BenchmarkJSON -update", benchmarkJSON)
	}
}

func TestCatalogueWithinContract(t *testing.T) {
	doc := catalogueDoc()
	if n := len(doc.Workloads); n < 2 || n > maxWorkloads {
		t.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(doc.EndToEnd); n < 1 || n > maxEndToEnd {
		t.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(doc.PerLayer); n < 1 || n > maxPerLayer {
		t.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range doc.Workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]jsonMetric{}, doc.EndToEnd...), doc.PerLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > maxBound) {
			t.Errorf("metric %s: bound %v outside (0, %v]", m.Name, *m.Bound, maxBound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
}

// runSmoke runs one workload at the smoke size through the command's
// own entry point and decodes the last line of its standard output.
func runSmoke(t *testing.T, workload string, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", "42", "--seconds", "0.3", "--trace", trace,
		"--size", "smoke", "--out", filepath.Join(t.TempDir(), "out"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit code %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v\n%s", workload, trace, err, stdout.String())
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	return rep
}

func checkMetrics(t *testing.T, rep report, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, catalogue has %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.name)
		case got.Unit != d.unit:
			t.Errorf("metric %s printed with unit %q, want %q", d.name, got.Unit, d.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", d.name, got.Value)
		case nonZero && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", d.name, got.Value)
		}
	}
}

// TestSmoke runs every workload both ways at the smoke size: windows
// must match the batch reference and the committed expected.json, every
// catalogued metric must be printed, and the traced run's layer shares
// must account for the traced wall.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice; skipped in -short mode")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			checkMetrics(t, runSmoke(t, name, "0"), endToEnd, true)
			rep := runSmoke(t, name, "1")
			checkMetrics(t, rep, perLayer, false)
			// dist-2shard's coordinator works beside the feeder, so its
			// shares may sum past the feeder's wall; nothing may fall
			// far short of it.
			if got := rep.Metrics["trace.attributed_share"].Value; got < 0.85 || got > 2 {
				t.Errorf("layer shares sum to %.3f of the traced wall, want 0.85..2", got)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, rateSpread, cpuUS float64) string {
		st := func(med, spread float64) *metricStat {
			return &metricStat{Median: med, Q1: med * (1 - spread/2), Q3: med * (1 + spread/2)}
		}
		set := resultSet{Workloads: map[string]*workloadStats{"live-v5": {EndToEnd: map[string]*metricStat{
			"records_per_s":     st(rate, rateSpread),
			"cpu_us_per_record": st(cpuUS, 0.01),
		}}}}
		raw, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.name] = d.bound
	}
	rate, cpuBound := bound["records_per_s"], bound["cpu_us_per_record"]
	base := write("a.json", 1000, 0.02, 3)
	for _, tc := range []struct {
		name      string
		other     string
		regressed bool
		want      string
	}{
		{"same", write("same.json", 1000*(1-rate/2), 0.02, 3*(1+cpuBound/2)), false, "ok"},
		{"slower", write("slow.json", 1000*(1-rate-0.05), 0.02, 3), true, "regressed"},
		{"noisy", write("noisy.json", 1000, rate+0.05, 3), false, "unresolved"},
		{"more cpu", write("cpu.json", 1000, 0.02, 3*(1+cpuBound+0.05)), true, "regressed"},
	} {
		var out bytes.Buffer
		regressed, err := compareSets(base, tc.other, &out)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v, output\n%s\nwant regressed=%v and a %q row", tc.name, regressed, out.String(), tc.regressed, tc.want)
		}
	}
}
