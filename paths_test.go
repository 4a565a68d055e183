// The path matrix: every route this repository claims reaches the
// paper's host set bit for bit, as one table of scenarios × paths.
//
// A scenario is a corpus, the engine geometry that cuts it into
// windows, and the files in testdata/ that pin its outcome. A path is
// one way of running a scenario, built from the shipped constructors:
// batch FindPlotters, the evaluation suite, the windowed engine, UDP
// loopback through the collector, checkpoint kill-and-resume, and the
// distributed deployments. Each scenario's reference cell is computed
// once per process and compared with its pinned files; every other
// cell must equal the reference on the whole outcome — window bounds,
// host and record counts, drops, suspects, every stage's survivors and
// threshold, the θ_hm clustering and the community verdict. A new path
// or corpus is one row; a seeded fault schedule is a row with a seed.
//
// After an intentional behavior change, regenerate the pinned files
// (each test rewrites its scenarios' files from their reference cells):
//
//	go test -run 'TestFindPlottersGolden|TestCollectorLoopbackGolden|TestIngestLoopbackFormats' -update
package plotters_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"plotters"
)

var update = flag.Bool("update", false, "rewrite the pinned files in testdata/ from the reference cells")

func TestFindPlottersGolden(t *testing.T) { runMatrix(t, []*scenario{goldenDay}, "batch-metrics") }

func TestCommunityGolden(t *testing.T) { runMatrix(t, []*scenario{goldenDay}, "suite") }

// The verdict may not depend on the feature store's shard count, even
// on a stream with late records.
func TestWindowedDetectorMatchesGolden(t *testing.T) {
	runMatrix(t, []*scenario{goldenDay, lateDay}, "windowed", "shards=1", "shards=4")
}

func TestDistributedGolden(t *testing.T) {
	runMatrix(t, []*scenario{goldenDay}, "simnet", "simnet-wrapped-detector", "tcp", "kill-and-reconnect")
}

func TestCollectorLoopbackGolden(t *testing.T) { runMatrix(t, []*scenario{v5Day}, "loopback") }

func TestCheckpointKillAndResumeGolden(t *testing.T) {
	runMatrix(t, []*scenario{v5Day}, "sync1", "sync256", "sync1073741824")
}

func TestIngestLoopbackFormats(t *testing.T) {
	runMatrix(t, []*scenario{ipfixDay, sflowDay}, "loopback")
	// IPFIX and sFlow both carry bidirectional counters and millisecond
	// times, so the two formats must reach the same outcome.
	if d := diff(sflowDay.refOut, ipfixDay.refOut); d != "" {
		t.Errorf("sflow and ipfix outcomes diverge: %s", d)
	}
}

// Property: any host-hash shard split of the golden day's features,
// local-passed per shard and merged, equals the single-process shard
// summary field for field — the invariant the distributed paths'
// bit-identity rests on.
func TestShardSplitMergeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis takes ~15s; skipped in -short mode")
	}
	if err := goldenDay.load(); err != nil {
		t.Fatal(err)
	}
	cfg := goldenDay.engine.Core
	src := plotters.ExtractFeatureSet(goldenDay.records, plotters.FeatureOptions{
		Hosts:        plotters.IsInternal,
		NewPeerGrace: cfg.NewPeerGrace,
	}, plotters.Window{})
	single, err := plotters.LocalPass(src, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	property := func(raw uint8) bool {
		shards := int(raw)%16 + 1
		parts := make([]map[plotters.IP]*plotters.HostFeatures, shards)
		cparts := make([]map[plotters.IP][]plotters.IP, shards)
		for i := range parts {
			parts[i] = make(map[plotters.IP]*plotters.HostFeatures)
			cparts[i] = make(map[plotters.IP][]plotters.IP)
		}
		contacts := src.Contacts()
		for h, f := range src.Features() {
			s := plotters.ShardOf(h, shards)
			parts[s][h] = f
			if c := contacts[h]; c != nil {
				cparts[s][h] = c
			}
		}
		sums := make([]*plotters.ShardSummary, shards)
		for i := range parts {
			part := plotters.NewFeatureSet(parts[i], src.Window()).WithContacts(cparts[i])
			sums[i], err = plotters.LocalPass(part, cfg, i, shards)
			if err != nil {
				t.Logf("shards=%d shard=%d: %v", shards, i, err)
				return false
			}
		}
		merged, err := plotters.MergeShardSummaries(sums)
		if err != nil {
			t.Logf("shards=%d: merge: %v", shards, err)
			return false
		}
		if !reflect.DeepEqual(merged.Hosts, single.Hosts) {
			t.Logf("shards=%d: merged host summaries differ from single-process", shards)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// runMatrix runs the named paths over each scenario: the scenario's
// reference cell against its pinned files, then every other path's cell
// against the reference. Cells are subtests named by path, nested under
// the scenario's name when there are several.
func runMatrix(t *testing.T, scenarios []*scenario, pathNames ...string) {
	if testing.Short() {
		t.Skip("corpus synthesis takes ~15s; skipped in -short mode")
	}
	for _, s := range scenarios {
		cells := func(t *testing.T) {
			ref, err := s.reference()
			if err != nil {
				t.Fatalf("%s: reference %s: %v", s.name, s.ref, err)
			}
			for _, p := range s.pins {
				if err := checkPin(p, p.view(s, ref)); err != nil {
					t.Error(err)
				}
			}
			for _, name := range pathNames {
				if name == s.ref {
					continue
				}
				t.Run(name, func(t *testing.T) {
					p, ok := paths[name]
					if !ok {
						t.Fatalf("no path %q", name)
					}
					cell := s.name + " × " + name
					if p.seed != 0 {
						cell += fmt.Sprintf(" (seed %d)", p.seed)
					}
					got, err := p.run(s)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if d := diff(got, ref); d != "" {
						t.Errorf("%s differs from the reference %s: %s", cell, s.ref, d)
					}
				})
			}
		}
		if len(scenarios) == 1 {
			cells(t)
		} else {
			t.Run(s.name, cells)
		}
	}
}

// stage is one filter's survivor count and its percentile threshold.
type stage struct {
	Survivors int     `json:"survivors"`
	Threshold float64 `json:"threshold"`
}

// communityOutcome is the community detector's verdict and its overlap
// with the paper pipeline's; its JSON is community_golden.json's.
type communityOutcome struct {
	GraphHosts   int      `json:"graph_hosts"`
	GraphEdges   int      `json:"graph_edges"`
	Communities  int      `json:"communities"`
	Flagged      int      `json:"flagged_communities"`
	Suspects     []string `json:"suspects"`
	Union        int      `json:"ensemble_union"`
	Intersection int      `json:"ensemble_intersection"`
}

// outcome is one detection window as every path must reproduce it.
// Drops is the run's late-record count, carried by each of its windows.
type outcome struct {
	Index                        int
	Window                       string
	Hosts, Records               int
	Partial                      bool
	Drops                        int
	Detectors                    []string
	Suspects                     []string
	Reduction, Vol, Churn, HM    stage
	Clusters, Clustered, Skipped int
	Community                    *communityOutcome `json:",omitempty"`
}

func outcomes(rs []*plotters.WindowResult, drops int) ([]outcome, error) {
	out := make([]outcome, len(rs))
	for i, r := range rs {
		res := r.Detection
		if res == nil {
			return nil, fmt.Errorf("window %d carries no paper-pipeline result", r.Index)
		}
		out[i] = outcome{
			Index: r.Index, Window: r.Window.String(), Hosts: r.Hosts, Records: r.Records, Partial: r.Partial, Drops: drops,
			Suspects:  hostStrings(res.Suspects),
			Reduction: stage{len(res.Reduction.Kept), res.Reduction.Threshold},
			Vol:       stage{len(res.Volume.Kept), res.Volume.Threshold},
			Churn:     stage{len(res.Churn.Kept), res.Churn.Threshold},
			HM:        stage{len(res.Suspects), res.HM.Threshold},
			Clusters:  len(res.HM.Clusters), Clustered: res.HM.Clustered, Skipped: res.HM.Skipped,
		}
		for _, d := range r.Detections {
			out[i].Detectors = append(out[i].Detectors, d.Detector)
			if rep, ok := d.Details.(*plotters.CommunityReport); ok {
				out[i].Community = &communityOutcome{rep.GraphHosts, rep.GraphEdges, len(rep.Communities), len(rep.Flagged),
					hostStrings(d.Suspects), len(plotters.UnionSuspects(r.Detections)), len(plotters.IntersectSuspects(r.Detections))}
			}
		}
	}
	return out, nil
}

func hostStrings(s plotters.HostSet) []string {
	hosts := s.Sorted()
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.String()
	}
	return out
}

// diff reports the first difference between got and want as JSON
// documents, by path; "" when they are equal.
func diff(got, want any) string { return jsonDiff("", normalize(got), normalize(want)) }

func normalize(v any) any {
	raw, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		return err.Error()
	}
	return out
}

func jsonDiff(path string, got, want any) string {
	switch w := want.(type) {
	case map[string]any:
		if g, ok := got.(map[string]any); ok && len(g) == len(w) {
			keys := make([]string, 0, len(w))
			for k := range w {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if d := jsonDiff(path+"."+k, g[k], w[k]); d != "" {
					return d
				}
			}
		}
	case []any:
		if g, ok := got.([]any); ok && len(g) == len(w) {
			for i := range w {
				if d := jsonDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
					return d
				}
			}
		}
	}
	if reflect.DeepEqual(got, want) {
		return ""
	}
	return fmt.Sprintf("%s = %v, want %v", path, got, want)
}

// pin is one pinned file — or one key of it, when the file holds several
// scenarios — and the fields of a scenario's reference it holds.
type pin struct {
	file, key string
	view      func(s *scenario, ref []outcome) any
}

// checkPin compares a reference's view with its pinned file or, under
// -update, rewrites the file (or its key) from it.
func checkPin(p pin, got any) error {
	raw, err := os.ReadFile(p.file)
	if err != nil && !*update {
		return fmt.Errorf("%v (run with -update to create it)", err)
	}
	where, want := p.file, json.RawMessage(raw)
	doc := map[string]json.RawMessage{}
	if p.key != "" {
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &doc); err != nil {
				return fmt.Errorf("%s: %v", p.file, err)
			}
		}
		where, want = p.file+"["+p.key+"]", doc[p.key]
	}
	if !*update {
		if d := diff(got, want); d != "" {
			return fmt.Errorf("%s changed: %s", where, d)
		}
		return nil
	}
	out := got
	if p.key != "" {
		if doc[p.key], err = json.Marshal(got); err != nil {
			return err
		}
		out = doc
	}
	raw, err = json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(p.file, append(raw, '\n'), 0o644)
}

func findPlottersView(s *scenario, ref []outcome) any {
	o := ref[0]
	return struct {
		Records   int      `json:"records"`
		Analyzed  int      `json:"analyzed_hosts"`
		Reduction stage    `json:"reduction"`
		Vol       stage    `json:"vol"`
		Churn     stage    `json:"churn"`
		HM        stage    `json:"hm"`
		Clusters  int      `json:"hm_clusters"`
		Clustered int      `json:"hm_clustered"`
		Skipped   int      `json:"hm_skipped"`
		Suspects  []string `json:"suspects"`
	}{len(s.records), o.Hosts, o.Reduction, o.Vol, o.Churn, o.HM, o.Clusters, o.Clustered, o.Skipped, o.Suspects}
}

func communityView(_ *scenario, ref []outcome) any { return ref[0].Community }

func wireView(s *scenario, ref []outcome) any {
	type window struct {
		Index    int      `json:"index"`
		Window   string   `json:"window"`
		Hosts    int      `json:"hosts"`
		Records  int      `json:"records"`
		Suspects []string `json:"suspects"`
	}
	ws := make([]window, len(ref))
	for i, o := range ref {
		ws[i] = window{o.Index, o.Window, o.Hosts, o.Records, o.Suspects}
	}
	return struct {
		WireRecords int      `json:"wire_records"`
		Windows     []window `json:"windows"`
	}{len(s.records), ws}
}

// scenario is one corpus cut by one engine geometry. build fills the
// fields below it once per process.
type scenario struct {
	name   string
	ref    string // the path whose cell every other cell must equal
	skewed bool   // out of order: late drops are part of the outcome
	pins   []pin
	build  func(s *scenario) error

	records []plotters.Record     // the stream, in feed order
	window  plotters.Window       // the span it covers
	engine  plotters.EngineConfig // geometry and detectors
	ds      *plotters.Dataset     // the synthesized corpus, for the suite
	day     *plotters.DayEval     // its batch extraction, for the features check
	packets [][]byte              // the stream as export datagrams
	counts  []int                 // records per datagram

	once, refOnce sync.Once
	err, refErr   error
	refOut        []outcome
}

func (s *scenario) load() error {
	s.once.Do(func() { s.err = s.build(s) })
	return s.err
}

// reference computes the scenario's reference cell, once.
func (s *scenario) reference() ([]outcome, error) {
	s.refOnce.Do(func() {
		if s.refErr = s.load(); s.refErr != nil {
			return
		}
		if s.refOut, s.refErr = paths[s.ref].run(s); s.refErr == nil && len(s.refOut) == 0 {
			s.refErr = errors.New("no window emitted")
		}
		if s.refErr == nil && !s.skewed && s.refOut[0].Drops != 0 {
			s.refErr = fmt.Errorf("dropped %d records of a start-ordered stream", s.refOut[0].Drops)
		}
	})
	return s.refOut, s.refErr
}

// The scenario table.
var (
	goldenDay = &scenario{name: "golden-day", ref: "batch", build: buildGoldenDay, pins: []pin{
		{file: "testdata/findplotters_golden.json", view: findPlottersView},
		{file: "testdata/community_golden.json", view: communityView},
	}}
	lateDay  = &scenario{name: fmt.Sprintf("golden-day-late-seed%d", lateSeed), ref: "shards=1", skewed: true, build: buildLateDay}
	v5Day    = &scenario{name: "v5", ref: "windowed", build: buildWire("netflow"), pins: []pin{{file: "testdata/collector_golden.json", view: wireView}}}
	ipfixDay = &scenario{name: "ipfix", ref: "windowed", build: buildWire("ipfix"), pins: []pin{{file: "testdata/ingest_golden.json", key: "ipfix", view: wireView}}}
	sflowDay = &scenario{name: "sflow", ref: "windowed", build: buildWire("sflow"), pins: []pin{{file: "testdata/ingest_golden.json", key: "sflow", view: wireView}}}
)

// goldenCorpus synthesizes day 0 of the seed-42 evaluation corpus. Day d
// of a dataset derives from cfg.Seed + d*7919, so a one-day corpus
// reproduces day 0 of the eight-day evaluation bit for bit at an eighth
// of the cost (~13 s), once per process.
var goldenCorpus = sync.OnceValues(func() (*plotters.Dataset, error) {
	cfg := plotters.DefaultDatasetConfig(42)
	cfg.Days = 1
	return plotters.GenerateDataset(cfg)
})

// buildGoldenDay overlays the golden corpus exactly as the evaluation
// suite does (suite seed 43, day 0): one six-hour window, run through
// the paper pipeline and the community detector.
func buildGoldenDay(s *scenario) error {
	ds, err := goldenCorpus()
	if err != nil {
		return err
	}
	cfg := plotters.DefaultConfig()
	day, err := plotters.OverlayDay(ds.Days[0], ds, 43, cfg)
	if err != nil {
		return err
	}
	pd, err := plotters.NewPaperDetector(cfg)
	if err != nil {
		return err
	}
	cd, err := plotters.NewCommunityDetector(plotters.DefaultCommunityConfig())
	w := ds.Days[0].Window
	s.ds, s.day, s.records, s.window = ds, day, day.Records, w
	s.engine = plotters.EngineConfig{Window: w.Duration(), Origin: w.From, Internal: plotters.IsInternal, Core: cfg,
		Detectors: []plotters.Detector{pd, cd}}
	return err
}

const (
	lateSeed = 29
	lateSkew = 5 * time.Minute
)

// buildLateDay moves a seeded one record in a hundred up to twice
// MaxSkew earlier in the golden day — some within the tolerance, some
// beyond it — for an engine that counts late records instead of failing.
func buildLateDay(s *scenario) error {
	if err := goldenDay.load(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(lateSeed))
	s.records = slices.Clone(goldenDay.records)
	for i := 1; i < len(s.records); i++ { // the first record sets the origin
		if rng.Intn(100) != 0 {
			continue
		}
		r := &s.records[i]
		d := min(time.Duration(rng.Int63n(int64(2*lateSkew))), r.Start.Sub(goldenDay.window.From))
		r.Start, r.End = r.Start.Add(-d), r.End.Add(-d)
	}
	s.window, s.engine = goldenDay.window, goldenDay.engine
	s.engine.MaxSkew, s.engine.DropLate = lateSkew, true
	return nil
}

// smallCorpus is a scaled-down day 0 of the seed-42 corpus: the wire
// scenarios need a realistic record mix, not full scale.
var smallCorpus = sync.OnceValues(func() (*plotters.DayEval, error) {
	cfg := plotters.DefaultDatasetConfig(42)
	cfg.Days = 1
	cfg.DayTemplate.CampusHosts = 100
	cfg.DayTemplate.Gnutella = 3
	cfg.DayTemplate.EMule = 3
	cfg.DayTemplate.BitTorrent = 4
	cfg.DayTemplate.PeerNetworkNodes = 800
	cfg.Storm.Bots = 6
	cfg.Storm.OverlayNodes = 500
	cfg.Storm.SeedPeers = 50
	cfg.Nugache.Bots = 15
	cfg.Nugache.OverlayNodes = 400
	ds, err := plotters.GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	return plotters.OverlayDay(ds.Days[0], ds, 43, smallPipe())
})

func smallPipe() plotters.Config {
	cfg := plotters.DefaultConfig()
	cfg.MinInterstitialSamples = 20
	return cfg
}

// datagrams captures each Write as one wire datagram — the packet
// writers' one-Write-per-packet contract makes it the packet splitter
// for every export format.
type datagrams [][]byte

func (d *datagrams) Write(p []byte) (int, error) {
	*d = append(*d, bytes.Clone(p))
	return len(p), nil
}

// buildWire quantizes the small corpus through one export format: the
// datagrams an exporter sends, and the records a collector behind it
// reconstructs, each datagram decoded alone as on the socket. The day
// is cut into three windows.
func buildWire(format string) func(s *scenario) error {
	return func(s *scenario) error {
		day, err := smallCorpus()
		if err != nil {
			return err
		}
		w, err := plotters.NewTraceWriter((*datagrams)(&s.packets), format)
		if err != nil {
			return err
		}
		if err := plotters.WriteAllTrace(w, day.Records); err != nil {
			return err
		}
		for i, pkt := range s.packets {
			r, err := plotters.NewTraceReader(bytes.NewReader(pkt), format)
			if err != nil {
				return err
			}
			recs, err := plotters.ReadAllTrace(r)
			if err != nil {
				return fmt.Errorf("%s packet %d: %v", format, i, err)
			}
			s.records = append(s.records, recs...)
			s.counts = append(s.counts, len(recs))
		}
		if len(s.records) != len(day.Records) {
			return fmt.Errorf("%s round trip lost records: %d != %d", format, len(s.records), len(day.Records))
		}
		s.window = day.Day.Window
		s.engine = plotters.EngineConfig{Window: s.window.Duration() / 3, Origin: s.window.From, MaxSkew: time.Hour,
			Internal: plotters.IsInternal, DropLate: true, Core: smallPipe()}
		return nil
	}
}

// path is one row of the path table. A fault row carries the seed its
// schedule is drawn from; failure messages name it.
type path struct {
	seed int64
	run  func(s *scenario) ([]outcome, error)
}

// The path table.
var paths = map[string]path{
	"batch":                   {run: func(s *scenario) ([]outcome, error) { return batch(s, s.engine.Core) }},
	"batch-metrics":           {run: batchMetrics},
	"suite":                   {run: suite},
	"windowed":                windowed(0),
	"shards=1":                windowed(1),
	"shards=4":                windowed(4),
	"loopback":                {run: loopback},
	"sync1":                   killResume(1, 1),
	"sync256":                 killResume(256, 13),
	"sync1073741824":          killResume(1<<30, 23),
	"simnet":                  cluster(false, 0),
	"simnet-wrapped-detector": cluster(true, 0),
	"tcp":                     {run: tcp},
	"kill-and-reconnect":      cluster(false, 14),
}

func collect(rs *[]*plotters.WindowResult) func(*plotters.WindowResult) error {
	return func(r *plotters.WindowResult) error { *rs = append(*rs, r); return nil }
}

func feed(add func(*plotters.Record) error, records []plotters.Record) error {
	for i := range records {
		if err := add(&records[i]); err != nil {
			return err
		}
	}
	return nil
}

// batchWindow wraps one-window batch detections as the engine emits
// them, records counted as the engine counts them: initiated inside.
func batchWindow(s *scenario, hosts int, dets []*plotters.Detection) []*plotters.WindowResult {
	r := &plotters.WindowResult{Window: s.window, Hosts: hosts, Detections: dets}
	for _, d := range dets {
		if r.Detection == nil {
			r.Detection = d.Paper
		}
	}
	for i := range s.records {
		if s.engine.Internal(s.records[i].Src) {
			r.Records++
		}
	}
	return []*plotters.WindowResult{r}
}

// batch runs the whole stream as one window through batch extraction
// and FindPlotters, then any other detector over the same extraction.
func batch(s *scenario, cfg plotters.Config) ([]outcome, error) {
	an, err := plotters.NewAnalysis(s.records, s.engine.Internal, cfg)
	if err != nil {
		return nil, err
	}
	res, err := an.FindPlotters()
	if err != nil {
		return nil, err
	}
	dets := []*plotters.Detection{{Detector: plotters.PaperDetectorName, Suspects: res.Suspects, Paper: res}}
	for i := 1; i < len(s.engine.Detectors); i++ {
		d, err := s.engine.Detectors[i].Detect(an.Source())
		if err != nil {
			return nil, err
		}
		dets = append(dets, d)
	}
	return outcomes(batchWindow(s, len(an.Features()), dets), 0)
}

// batchMetrics is an instrumented batch run: behaviorally identical, and
// its stage gauges agree with its survivor counts.
func batchMetrics(s *scenario) ([]outcome, error) {
	cfg := s.engine.Core
	cfg.Metrics = plotters.NewMetrics()
	out, err := batch(s, cfg)
	if err != nil {
		return nil, err
	}
	snap := cfg.Metrics.TakeSnapshot()
	for gauge, want := range map[string]int{
		"pipeline/hosts/reduction": out[0].Reduction.Survivors,
		"pipeline/hosts/vol":       out[0].Vol.Survivors,
		"pipeline/hosts/churn":     out[0].Churn.Survivors,
		"pipeline/hosts/suspects":  out[0].HM.Survivors,
	} {
		if n := snap.Gauges[gauge]; n != int64(want) {
			return nil, fmt.Errorf("gauge %s = %d, want %d", gauge, n, want)
		}
	}
	return out, nil
}

// suite is the evaluation harness's ensemble: the day rebuilt by a
// multi-detector suite, every detector run over it once.
func suite(s *scenario) ([]outcome, error) {
	sut, err := plotters.NewSuiteDetectors(s.ds, s.engine.Core, 43, s.engine.Detectors)
	if err != nil {
		return nil, err
	}
	day, err := sut.Day(0)
	if err != nil {
		return nil, err
	}
	dets, err := day.Detections()
	if err != nil {
		return nil, err
	}
	return outcomes(batchWindow(s, len(day.Analysis.Features()), dets), 0)
}

// windowed feeds the stream to one WindowedDetector whose feature store
// has shards shards (0: one per CPU). On the golden day its window's
// features must also equal the batch extraction's, map for map.
func windowed(shards int) path {
	return path{run: func(s *scenario) ([]outcome, error) {
		ecfg := s.engine
		ecfg.Shards = shards
		var rs []*plotters.WindowResult
		eng, err := plotters.NewWindowedDetector(ecfg, collect(&rs))
		if err != nil {
			return nil, err
		}
		if err := feed(eng.Add, s.records); err != nil {
			return nil, err
		}
		if err := eng.AdvanceTo(s.window.To); err != nil {
			return nil, err
		}
		out, err := outcomes(rs, eng.Dropped())
		if err == nil && s.day != nil && !reflect.DeepEqual(rs[0].Detection.Analysis.Features(), s.day.Analysis.Features()) {
			err = errors.New("windowed features differ from the batch extraction")
		}
		return out, err
	}}
}

// loopback sends the scenario's datagrams through a real UDP socket into
// the collector, one decode worker preserving arrival order, and the
// collector's records into the engine. The sender waits for each
// datagram to be decoded before the next, so the socket buffer never
// overflows: this measures equivalence, not burst tolerance.
func loopback(s *scenario) ([]outcome, error) {
	var rs []*plotters.WindowResult
	eng, err := plotters.NewWindowedDetector(s.engine, collect(&rs))
	if err != nil {
		return nil, err
	}
	reg := plotters.NewMetrics()
	var ingestErr error
	col, err := plotters.ListenNetFlow(plotters.CollectorConfig{Addr: "127.0.0.1:0", Workers: 1, Metrics: reg,
		Handler: func(recs []plotters.Record) {
			if ingestErr == nil {
				ingestErr = feed(eng.Add, recs)
			}
		}})
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- col.Run(ctx) }()
	decoded := func() int64 { return reg.TakeSnapshot().Counters["collector/records"] }
	for i, sent := 0, 0; err == nil && i < len(s.packets); i++ {
		_, err = conn.Write(s.packets[i])
		sent += s.counts[i]
		for deadline := time.Now().Add(10 * time.Second); err == nil && decoded() < int64(sent); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				err = fmt.Errorf("packet %d: collector decoded %d of %d sent records", i, decoded(), sent)
			}
		}
	}
	conn.Close()
	cancel()
	if runErr := <-done; err == nil {
		err = errors.Join(runErr, ingestErr)
	}
	if err == nil {
		err = eng.AdvanceTo(s.window.To)
	}
	if err != nil {
		return nil, err
	}
	// The wire must have been clean: every datagram decoded, nothing
	// dropped, malformed, skipped or gapped.
	snap := reg.TakeSnapshot()
	for name, want := range map[string]int64{
		"collector/packets":           int64(len(s.packets)),
		"collector/records":           int64(len(s.records)),
		"collector/packets/dropped":   0,
		"collector/packets/malformed": 0,
		"collector/seq/gaps":          0,
		"collector/seq/lost_flows":    0,
		"collector/sflow/skipped":     0,
	} {
		if got := snap.Counters[name]; got != want {
			return nil, fmt.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	return outcomes(rs, eng.Dropped())
}

// killResume runs the stream through a CheckpointManager that
// checkpoints and is then killed at seeded points: abandoned without
// Flush or Close, exactly what SIGKILL leaves (whatever sat in the WAL's
// buffer is gone). A second life recovers from the state directory and
// finishes the stream from where the log ends. Recovery may re-emit
// windows, never rewrite them.
func killResume(syncEvery int, seed int64) path {
	return path{seed: seed, run: func(s *scenario) ([]outcome, error) {
		rng := rand.New(rand.NewSource(seed))
		killAt := len(s.records)/4 + rng.Intn(len(s.records)/2) // records ingested when the kill lands
		ckptAt := rng.Intn(killAt)                              // life 1 checkpoints after this record
		dir, err := os.MkdirTemp("", "kill-resume")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		life := func(every int, rs *[]*plotters.WindowResult) (*plotters.WindowedDetector, *plotters.CheckpointManager, *plotters.CheckpointRecovery, error) {
			ecfg := s.engine
			ecfg.StateDir = dir
			eng, err := plotters.NewWindowedDetector(ecfg, collect(rs))
			if err != nil {
				return nil, nil, nil, err
			}
			mgr, err := plotters.NewCheckpointManager(plotters.CheckpointConfig{SyncEvery: every}, eng)
			if err != nil {
				return nil, nil, nil, err
			}
			info, err := mgr.Recover()
			return eng, mgr, info, err
		}

		var life1, life2 []*plotters.WindowResult
		_, mgr1, info, err := life(syncEvery, &life1)
		if err != nil {
			return nil, err
		}
		if info.SnapshotLoaded || info.Replayed != 0 {
			return nil, fmt.Errorf("cold start found state: %+v", info)
		}
		visibleAt := 0 // records accepted when life 1 last emitted a window
		for i := 0; i < killAt; i++ {
			emitted := len(life1)
			if err := mgr1.Add(&s.records[i]); err != nil {
				return nil, err
			}
			if len(life1) > emitted {
				visibleAt = i + 1
			}
			if i == ckptAt {
				if err := mgr1.Checkpoint(); err != nil {
					return nil, err
				}
			}
		}
		// SIGKILL: life 1 is simply abandoned here. Life 2 is not killed,
		// so its commit cadence would only cost fsyncs.
		eng2, mgr2, info, err := life(1<<30, &life2)
		if err != nil {
			return nil, err
		}
		if !info.SnapshotLoaded {
			return nil, errors.New("recovery did not load the snapshot")
		}
		// The kill lost at most the unwritten buffer — under SyncEvery
		// frames, and never more than the 64 KB buffer holds (so nothing
		// at SyncEvery 1) — and nothing an emitted window was built on.
		logged := ckptAt + 1 + info.Replayed
		if bound := min(syncEvery, 64<<10/71); logged > killAt || killAt-logged >= bound {
			return nil, fmt.Errorf("log ends at record %d: want within %d of the kill at %d", logged, bound, killAt)
		}
		if logged < visibleAt {
			return nil, fmt.Errorf("log ends at record %d, but life 1 emitted a window built on %d", logged, visibleAt)
		}
		if err := feed(mgr2.Add, s.records[logged:]); err != nil {
			return nil, err
		}
		if err := errors.Join(mgr2.AdvanceTo(s.window.To), mgr2.Checkpoint(), mgr2.Close()); err != nil {
			return nil, err
		}
		// CI uploads the final checkpoint so a format regression leaves
		// evidence to bisect with.
		if out := os.Getenv("CHECKPOINT_ARTIFACT_DIR"); out != "" {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return nil, err
			}
			for _, name := range []string{plotters.CheckpointSnapshotFile, plotters.CheckpointWALFile} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err == nil {
					err = os.WriteFile(filepath.Join(out, name), data, 0o644)
				}
				if err != nil {
					return nil, err
				}
			}
		}
		return mergeLives(eng2.Dropped(), life1, life2)
	}}
}

// mergeLives folds the windows of several process lives into one run by
// index. A window emitted twice — before the kill and again by WAL
// replay — must be identical both times.
func mergeLives(drops int, lives ...[]*plotters.WindowResult) ([]outcome, error) {
	byIdx := make(map[int]outcome)
	for _, life := range lives {
		outs, err := outcomes(life, drops)
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			if prev, ok := byIdx[o.Index]; ok {
				if d := diff(o, prev); d != "" {
					return nil, fmt.Errorf("window %d re-emitted differently across the crash: %s", o.Index, d)
				}
				continue
			}
			byIdx[o.Index] = o
		}
	}
	merged := make([]outcome, 0, len(byIdx))
	for _, o := range byIdx {
		merged = append(merged, o)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].Index < merged[b].Index })
	return merged, nil
}

const distShards = 4

// forwardingDetector embeds the paper detector and only forwards Detect
// — the shape of any decorator (timing, tracing) put around it, which
// must reach the shards' θ_hm sketches exactly as the bare detector.
type forwardingDetector struct{ *plotters.PaperDetector }

func (f forwardingDetector) Detect(src plotters.FeatureSource) (*plotters.Detection, error) {
	return f.PaperDetector.Detect(src)
}

// cluster runs the stream through a 4-shard in-process deployment,
// wrapped: with the paper detector behind a decorator. With a seed, every shard connection is killed at a seeded instant of
// the stream — after a watermark that makes every worker connect — and
// the rest must arrive over re-established connections, outboxes
// replayed.
func cluster(wrapped bool, seed int64) path {
	return path{seed: seed, run: func(s *scenario) ([]outcome, error) {
		ecfg := s.engine
		if wrapped {
			ecfg.Detectors = append([]plotters.Detector{forwardingDetector{ecfg.Detectors[0].(*plotters.PaperDetector)}}, ecfg.Detectors[1:]...)
		}
		var rs []*plotters.WindowResult
		cl, err := plotters.NewDistCluster(plotters.CoordinatorConfig{Shards: distShards, Engine: ecfg}, collect(&rs))
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		rest := s.records
		if seed != 0 {
			cut := s.window.From.Add(time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(s.window.Duration()))))
			i := sort.Search(len(rest), func(i int) bool { return !rest[i].Start.Before(cut) })
			if err := errors.Join(feed(cl.Add, rest[:i]), cl.AdvanceTo(cut)); err != nil {
				return nil, err
			}
			for _, wk := range cl.Workers {
				wk.DropConnection()
			}
			rest = rest[i:]
		}
		if err := errors.Join(feed(cl.Add, rest), cl.AdvanceTo(s.window.To), cl.Drain(30*time.Second)); err != nil {
			return nil, err
		}
		drops, reconnected := 0, 0
		for _, wk := range cl.Workers {
			drops += wk.Engine().Dropped()
		}
		for _, ss := range cl.Coordinator.ShardSeqs() {
			if !ss.Seen {
				return nil, fmt.Errorf("shard %d never connected", ss.Shard)
			}
			if ss.Connects >= 2 {
				reconnected++
			}
		}
		if seed != 0 && reconnected == 0 {
			return nil, errors.New("no shard reconnected — the kill did not exercise the resend path")
		}
		return outcomes(rs, drops)
	}}
}

// tcp runs the stream through a coordinator and 4 shard workers over
// real TCP loopback.
func tcp(s *scenario) ([]outcome, error) {
	var rs []*plotters.WindowResult
	coord, err := plotters.NewCoordinator(plotters.CoordinatorConfig{Shards: distShards, Engine: s.engine}, collect(&rs))
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	workers := make([]*plotters.ShardWorker, distShards)
	for i := range workers {
		workers[i], err = plotters.NewShardWorker(plotters.ShardWorkerConfig{Shard: i, Shards: distShards, Engine: s.engine,
			Dial: func() (net.Conn, error) { return net.Dial("tcp", addr.String()) }})
		if err != nil {
			return nil, err
		}
		defer workers[i].Close()
	}
	if err := feed(func(r *plotters.Record) error { return workers[plotters.ShardOf(r.Src, distShards)].Add(r) }, s.records); err != nil {
		return nil, err
	}
	drops := 0
	for _, wk := range workers {
		if err := wk.AdvanceTo(s.window.To); err != nil {
			return nil, err
		}
	}
	for _, wk := range workers {
		if err := wk.Drain(30 * time.Second); err != nil {
			return nil, err
		}
		drops += wk.Engine().Dropped()
	}
	return outcomes(rs, drops)
}
