// Package plotters is a library for telling P2P botnet members
// ("Plotters") apart from P2P file-sharing hosts ("Traders") in network
// flow records, reproducing Yen & Reiter, "Are Your Hosts Trading or
// Plotting? Telling P2P File-Sharing and Bots Apart" (ICDCS 2010).
//
// The library has three parts:
//
//   - The detection pipeline (FindPlotters): an initial failed-connection
//     data reduction followed by three behavioral tests — traffic volume
//     (θ_vol), peer churn (θ_churn), and human- vs. machine-driven timing
//     (θ_hm, Earth Mover's Distance clustering of interstitial-time
//     histograms). All thresholds are percentiles of the observed
//     population.
//   - Traffic synthesis: a deterministic discrete-event simulation of a
//     campus border (background hosts, Gnutella/eMule/BitTorrent Traders
//     over a Kademlia substrate) and of Storm and Nugache honeynet
//     traces, standing in for the paper's unobtainable datasets.
//   - The evaluation harness: trace overlay, ground-truth labeling from
//     payload signatures, ROC sweeps, and a regeneration of every figure
//     in the paper's evaluation (see EXPERIMENTS.md).
//
// Quickstart:
//
//	ds, _ := plotters.GenerateDataset(plotters.DefaultDatasetConfig(42))
//	suite, _ := plotters.NewSuite(ds, plotters.DefaultConfig(), 1)
//	day, _ := suite.Day(0)
//	res, _ := day.Analysis.FindPlotters()
//	for _, host := range res.Suspects.Sorted() {
//		fmt.Println("suspected plotter:", host)
//	}
package plotters

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"plotters/internal/baseline"
	"plotters/internal/campaign"
	"plotters/internal/checkpoint"
	"plotters/internal/collector"
	"plotters/internal/community"
	"plotters/internal/core"
	"plotters/internal/dist"
	"plotters/internal/engine"
	"plotters/internal/eval"
	"plotters/internal/evasion"
	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/ingest"
	"plotters/internal/label"
	"plotters/internal/metrics"
	"plotters/internal/synth"
	"plotters/internal/synth/plotter"
	"plotters/internal/synth/scenario"
)

// Flow-record model.
type (
	// Record is one Argus-style bi-directional flow record.
	Record = flow.Record
	// IP is an IPv4 address in host byte order.
	IP = flow.IP
	// Subnet is a CIDR prefix.
	Subnet = flow.Subnet
	// Window is a half-open observation interval (the detection window).
	Window = flow.Window
	// Proto is a transport protocol number.
	Proto = flow.Proto
	// ConnState classifies connection outcomes.
	ConnState = flow.ConnState
	// HostFeatures aggregates one host's behavioral features.
	HostFeatures = flow.HostFeatures
	// FeatureOptions configures feature extraction.
	FeatureOptions = flow.FeatureOptions
)

// Transport protocols and connection states.
const (
	TCP  = flow.TCP
	UDP  = flow.UDP
	ICMP = flow.ICMP

	StateEstablished = flow.StateEstablished
	StateFailed      = flow.StateFailed
)

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) { return flow.ParseIP(s) }

// ParseSubnet parses CIDR notation.
func ParseSubnet(s string) (Subnet, error) { return flow.ParseSubnet(s) }

// ParseSubnets parses a comma-separated CIDR list — the tools' -internal
// flag — into the monitored-address predicate the pipeline takes. An
// empty list is an error, not "every address".
func ParseSubnets(csv string) (func(IP) bool, error) {
	var subnets []Subnet
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		sn, err := ParseSubnet(s)
		if err != nil {
			return nil, err
		}
		subnets = append(subnets, sn)
	}
	if len(subnets) == 0 {
		return nil, fmt.Errorf("no internal subnets given")
	}
	return func(ip IP) bool {
		for _, sn := range subnets {
			if sn.Contains(ip) {
				return true
			}
		}
		return false
	}, nil
}

// ExtractFeatures computes per-host behavioral features from records.
func ExtractFeatures(records []Record, opts FeatureOptions) map[IP]*HostFeatures {
	return flow.ExtractFeatures(records, opts)
}

// Detection pipeline (the paper's contribution).
type (
	// Config tunes the FindPlotters pipeline.
	Config = core.Config
	// Analysis holds per-host features for one detection window.
	Analysis = core.Analysis
	// Result is the full FindPlotters outcome with every stage exposed.
	Result = core.Result
	// HostSet is a set of internal host addresses.
	HostSet = core.HostSet
	// HMCluster is one θ_hm cluster.
	HMCluster = core.HMCluster
)

// DefaultConfig returns the calibrated operating point (see
// EXPERIMENTS.md for how it maps to the paper's).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewAnalysis extracts per-host features for one detection window.
// internal selects monitored addresses (nil = every initiator).
func NewAnalysis(records []Record, internal func(IP) bool, cfg Config) (*Analysis, error) {
	return core.NewAnalysis(records, internal, cfg)
}

// FindPlotters runs the complete detection pipeline of the paper's
// Figure 4 over one window of flow records.
func FindPlotters(records []Record, internal func(IP) bool, cfg Config) (*Result, error) {
	return core.FindPlotters(records, internal, cfg)
}

// Multi-detector framework: the paper pipeline and the mutual-contact
// community detector behind one seam, run singly, per window by the
// engine (EngineConfig.Detectors), or as a scored ensemble by the
// evaluation suite (NewSuiteDetectors + Suite.Ensemble).
type (
	// Detector is the per-window detection seam.
	Detector = core.Detector
	// Detection is one detector's verdict over a window.
	Detection = core.Detection
	// PaperDetector adapts FindPlotters to the Detector seam.
	PaperDetector = core.PaperDetector
	// CommunityConfig tunes the mutual-contact community detector.
	CommunityConfig = community.Config
	// CommunityDetector flags dense mutual-contact communities.
	CommunityDetector = community.Detector
	// CommunityReport is the community detector's per-window outcome.
	CommunityReport = community.Report
)

// Stable detector identifiers.
const (
	// PaperDetectorName identifies the FindPlotters pipeline.
	PaperDetectorName = core.PaperName
	// CommunityDetectorName identifies the community detector.
	CommunityDetectorName = community.Name
)

// NewPaperDetector wraps the paper pipeline at the given operating
// point.
func NewPaperDetector(cfg Config) (*PaperDetector, error) { return core.NewPaperDetector(cfg) }

// DefaultCommunityConfig returns the community detector's default
// operating point.
func DefaultCommunityConfig() CommunityConfig { return community.DefaultConfig() }

// NewCommunityDetector creates a mutual-contact community detector.
func NewCommunityDetector(cfg CommunityConfig) (*CommunityDetector, error) {
	return community.New(cfg)
}

// ParseDetectors parses a comma-separated detector list — the tools'
// -detectors flag — into instances, in the order listed: the paper
// pipeline at cfg, the community detector at community. It never returns
// an empty list without an error.
func ParseDetectors(spec string, cfg Config, community CommunityConfig) ([]Detector, error) {
	return eval.ParseDetectors(spec, cfg, community)
}

// UnionSuspects returns the hosts flagged by at least one detection.
func UnionSuspects(detections []*Detection) HostSet { return eval.Union(detections) }

// IntersectSuspects returns the hosts flagged by every detection.
func IntersectSuspects(detections []*Detection) HostSet { return eval.Intersection(detections) }

// Ground-truth labeling (§III payload rules).
type (
	// App identifies a recognized file-sharing application.
	App = label.App
	// HostLabel is one host's ground-truth evidence.
	HostLabel = label.HostLabel
)

// Recognized file-sharing applications.
const (
	AppUnknown    = label.AppUnknown
	AppGnutella   = label.AppGnutella
	AppEMule      = label.AppEMule
	AppBitTorrent = label.AppBitTorrent
)

// LabelTraders returns the hosts whose flows carry file-sharing protocol
// signatures (§III), used only for scoring — the detection pipeline never
// reads payloads.
func LabelTraders(records []Record, internal func(IP) bool) map[IP]bool {
	return label.Traders(records, internal)
}

// LabelHosts returns detailed per-host labeling evidence.
func LabelHosts(records []Record, internal func(IP) bool) map[IP]*HostLabel {
	return label.LabelHosts(records, internal)
}

// Traffic synthesis.
type (
	// DayConfig shapes one synthesized campus collection day.
	DayConfig = scenario.DayConfig
	// Day is one synthesized day.
	Day = scenario.Day
	// DatasetConfig shapes the full evaluation corpus.
	DatasetConfig = scenario.DatasetConfig
	// Dataset is the full corpus: days plus the two honeynet traces.
	Dataset = scenario.Dataset
	// StormConfig shapes a Storm honeynet trace.
	StormConfig = plotter.StormConfig
	// NugacheConfig shapes a Nugache honeynet trace.
	NugacheConfig = plotter.NugacheConfig
	// BotTrace is a generated honeynet trace.
	BotTrace = plotter.Trace
)

// DefaultDayConfig returns the evaluation's per-day shape.
func DefaultDayConfig(day time.Time, seed int64) DayConfig {
	return scenario.DefaultDayConfig(day, seed)
}

// DefaultDatasetConfig mirrors the paper's evaluation (eight days,
// 13 Storm bots, 82 Nugache bots).
func DefaultDatasetConfig(seed int64) DatasetConfig {
	return scenario.DefaultDatasetConfig(seed)
}

// GenerateDay synthesizes one campus day with embedded Traders.
func GenerateDay(cfg DayConfig) (*Day, error) { return scenario.GenerateDay(cfg) }

// GenerateDataset synthesizes the full corpus.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) {
	return scenario.GenerateDataset(cfg)
}

// GenerateStorm synthesizes a 24-hour Storm honeynet trace.
func GenerateStorm(cfg StormConfig, seed int64) (*BotTrace, error) {
	return plotter.GenerateStorm(cfg, seed)
}

// GenerateNugache synthesizes a 24-hour Nugache honeynet trace.
func GenerateNugache(cfg NugacheConfig, seed int64) (*BotTrace, error) {
	return plotter.GenerateNugache(cfg, seed)
}

// IsInternal reports whether ip belongs to the simulated campus network
// (two /16 subnets, like the paper's).
func IsInternal(ip IP) bool { return synth.IsInternal(ip) }

// CollectionWindow returns the paper's 9 a.m.–3 p.m. daily window for a
// calendar day.
func CollectionWindow(day time.Time) Window { return synth.CollectionWindow(day) }

// Overlay and evaluation.
type (
	// Suite drives the full evaluation over a dataset.
	Suite = eval.Suite
	// DayEval is one overlaid day with ground truth.
	DayEval = eval.DayEval
	// Rates is a scored detection outcome.
	Rates = eval.Rates
)

// NewSuite wraps a dataset for evaluation.
func NewSuite(ds *Dataset, cfg Config, seed int64) (*Suite, error) {
	return eval.NewSuite(ds, cfg, seed)
}

// NewSuiteDetectors wraps a dataset for evaluation with the detector
// list run over every day (empty: the paper pipeline alone; otherwise it
// must include a PaperDetector); score the ensemble with Suite.Ensemble.
func NewSuiteDetectors(ds *Dataset, cfg Config, seed int64, detectors []Detector) (*Suite, error) {
	return eval.NewSuiteDetectors(ds, cfg, seed, detectors)
}

// OverlayDay overlays the dataset's honeynet traces onto one day.
func OverlayDay(day *Day, ds *Dataset, seed int64, cfg Config) (*DayEval, error) {
	return eval.Overlay(day, eval.StormTrace(ds), eval.NugacheTrace(ds), seed, cfg)
}

// Score computes detection rates of kept relative to input, with truth
// marking the Plotters.
func Score(kept, input, truth HostSet) Rates { return eval.Score(kept, input, truth) }

// Evasion analysis (§VI).

// InflateVolume multiplies the bytes uploaded on every successful flow —
// the direct θ_vol evasion, at the cost of conspicuous extra traffic.
func InflateVolume(records []Record, factor float64) ([]Record, error) {
	return evasion.InflateVolume(records, factor)
}

// InflateChurn rewrites repeat contacts to fresh addresses so the host
// appears to churn through new peers, the θ_churn evasion.
func InflateChurn(records []Record, factor float64, freshPool []IP, rng *rand.Rand) ([]Record, error) {
	return evasion.InflateChurn(records, factor, freshPool, rng)
}

// JitterRepeatContacts shifts every repeat-contact connection by a
// uniform ±d delay — the paper's θ_hm evasion simulation. Larger d
// degrades detection but slows the botnet's command responsiveness.
func JitterRepeatContacts(records []Record, d time.Duration, rng *rand.Rand) ([]Record, error) {
	return evasion.JitterRepeatContacts(records, d, rng)
}

// RequiredVolumeFactor returns the multiplicative flow-size increase a
// host needs to clear the volume threshold (Figure 11(a)).
func RequiredVolumeFactor(avgBytesPerFlow, threshold float64) float64 {
	return evasion.RequiredVolumeFactor(avgBytesPerFlow, threshold)
}

// RequiredChurnFactor returns by what factor a host must grow its new-IP
// count to lift its new-IP fraction to target (Figure 11(b)).
func RequiredChurnFactor(newPeers, totalPeers int, target float64) float64 {
	return evasion.RequiredChurnFactor(newPeers, totalPeers, target)
}

// PadFlows adds pad junk bytes to every successful flow — the additive
// θ_vol evasion.
func PadFlows(records []Record, pad uint64) []Record {
	return evasion.PadFlows(records, pad)
}

// SlowStartContacts delays each (src, dst) pair's first contact — and
// every later flow of the pair with it — by a per-pair uniform delay in
// [0, d], rationing peer rendezvous to flatten the new-destination rate
// θ_churn keys on.
func SlowStartContacts(records []Record, d time.Duration, rng *rand.Rand) ([]Record, error) {
	return evasion.SlowStartContacts(records, d, rng)
}

// Red-team campaigns: parameterized countermeasures composed over the
// §VI evasion transforms, swept across synthetic worlds against the
// detector ensemble, reported as a detection-rate-vs-evasion-cost
// frontier. See DESIGN.md §6 and `cmd/experiments -campaign`.
type (
	// CampaignConfig parameterizes one campaign run.
	CampaignConfig = campaign.Config
	// CampaignReport is a campaign's full frontier outcome.
	CampaignReport = campaign.Report
	// CampaignFrontierPoint is one countermeasure × intensity grid point.
	CampaignFrontierPoint = campaign.FrontierPoint
	// CampaignScore is one detector's accumulated outcome at a point.
	CampaignScore = campaign.Score
	// CampaignScale sizes a campaign world's campus.
	CampaignScale = campaign.Scale
)

// Campaign world scales.
const (
	CampaignScaleSmall = campaign.ScaleSmall
)

// DefaultCampaignConfig returns the standard sweep at the given seed.
func DefaultCampaignConfig(seed int64) CampaignConfig { return campaign.DefaultConfig(seed) }

// RunCampaign executes a red-team campaign and returns its frontier
// report. The same configuration reproduces the same report bit for bit.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) { return campaign.Run(cfg) }

// Baseline detectors (§II related work), for comparison with FindPlotters.
type (
	// TDGConfig tunes the traffic-dispersion-graph P2P identifier.
	TDGConfig = baseline.TDGConfig
	// TDGResult is the TDG detector's outcome.
	TDGResult = baseline.TDGResult
	// PersistenceConfig tunes the persistent-connection C&C detector.
	PersistenceConfig = baseline.PersistenceConfig
	// PersistenceResult is the persistence detector's outcome.
	PersistenceResult = baseline.PersistenceResult
)

// DefaultTDGConfig returns the published TDG operating point.
func DefaultTDGConfig() TDGConfig { return baseline.DefaultTDGConfig() }

// TDG runs the per-port traffic-dispersion-graph P2P identifier.
func TDG(records []Record, internal func(IP) bool, cfg TDGConfig) (*TDGResult, error) {
	return baseline.TDG(records, internal, cfg)
}

// DefaultPersistenceConfig returns the published persistence operating
// point.
func DefaultPersistenceConfig() PersistenceConfig { return baseline.DefaultPersistenceConfig() }

// PersistenceDetect runs the persistent-connection C&C detector.
func PersistenceDetect(records []Record, window Window, internal func(IP) bool, cfg PersistenceConfig) (*PersistenceResult, error) {
	return baseline.Persistence(records, window, internal, cfg)
}

// Per-application analysis (the paper's §VI extension).
type (
	// PortGrouper maps a flow to an application group.
	PortGrouper = core.PortGrouper
	// PortGroupResult is the per-application pipeline outcome.
	PortGroupResult = core.PortGroupResult
	// VirtualHost is one (host, application group) analysis unit.
	VirtualHost = core.VirtualHost
)

// FindPlottersByApplication splits each host's traffic by application
// port group and runs the pipeline per group, exposing Plotters hiding
// behind a Trader on the same machine.
func FindPlottersByApplication(records []Record, internal func(IP) bool, cfg Config, grouper PortGrouper, minFlows int) (*PortGroupResult, error) {
	return core.FindPlottersByApplication(records, internal, cfg, grouper, minFlows)
}

// Feature sources decouple feature accumulation from detection: the
// pipeline consumes a sealed window's FeatureSet, not raw records, so
// batch extraction and a pane sealed from the engine's sharded store
// reach a detector the same way.
type (
	// FeatureSource supplies one sealed detection window's per-host
	// features, contact sets and θ_hm signatures.
	FeatureSource = flow.FeatureSource
	// FeatureSet is the one FeatureSource.
	FeatureSet = flow.FeatureSet
	// ShardedExtractor is the feature store: it accumulates features
	// sharded by source address across independently locked shards, for
	// concurrent ingest, and hands them out only as sealed panes.
	ShardedExtractor = flow.ShardedExtractor
)

// ExtractFeatureSet batch-extracts one window's features as a
// FeatureSource. A zero window derives the bounds from the records.
func ExtractFeatureSet(records []Record, opts FeatureOptions, window Window) *FeatureSet {
	return flow.ExtractFeatureSet(records, opts, window)
}

// NewShardedExtractorSkew creates a sharded feature store tolerating
// records up to maxSkew out of start order.
func NewShardedExtractorSkew(opts FeatureOptions, shards int, maxSkew time.Duration) *ShardedExtractor {
	return flow.NewShardedExtractorSkew(opts, shards, maxSkew)
}

// Continuous windowed detection: records stream into a sharded feature
// store and the full pipeline runs at every window boundary.
type (
	// EngineConfig shapes a WindowedDetector.
	EngineConfig = engine.Config
	// WindowedDetector drives continuous detection over a record stream.
	WindowedDetector = engine.WindowedDetector
	// WindowResult is one sealed detection window's outcome.
	WindowResult = engine.Result
)

// ErrLateRecord marks a streamed record dropped for arriving more than
// EngineConfig.MaxSkew behind the stream frontier.
var ErrLateRecord = engine.ErrLateRecord

// NewWindowedDetector creates a continuous detector; emit receives each
// sealed window's result in order.
func NewWindowedDetector(cfg EngineConfig, emit func(*WindowResult) error) (*WindowedDetector, error) {
	return engine.New(cfg, emit)
}

// Streaming trace I/O: Next()/Write() interfaces over every row of the
// trace-format table, for traces larger than memory.
type (
	// TraceReader streams records from a trace.
	TraceReader = flowio.Reader
	// TraceWriter streams records to a trace.
	TraceWriter = flowio.Writer
)

// TraceFormatNames lists the table's names, for flag help strings.
func TraceFormatNames() string { return flowio.Names() }

// NewTraceReader opens a streaming reader for the named format.
func NewTraceReader(r io.Reader, format string) (TraceReader, error) {
	f, err := flowio.Lookup(format)
	if err != nil {
		return nil, err
	}
	return f.NewReader(r), nil
}

// NewTraceWriter opens a streaming writer for the named format. The
// packet-stream formats (one per export protocol) issue one Write per
// packed export packet, so handing them a net.Conn replays the trace as
// real exporter datagrams. They are lossy where their protocols are —
// all floor timestamps to the millisecond and drop payload, NetFlow v5
// also drops responder counters — see flowio.PacketWriter.
func NewTraceWriter(w io.Writer, format string) (TraceWriter, error) {
	f, err := flowio.Lookup(format)
	if err != nil {
		return nil, err
	}
	return f.NewWriter(w), nil
}

// ScanTraceFile streams the trace file at path, record by record — it
// never sits in memory — through a reader metered by reg and the
// content-hash sampler, calling fn for every kept record. It returns
// how many records were kept and how many sampled out; an error from fn
// stops the scan. fn's record is overwritten by the next one: copy it
// to keep it.
func ScanTraceFile(path, format string, reg *Metrics, sampler FlowSampler, fn func(*Record) error) (kept, sampledOut int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	tr, err := NewTraceReader(f, format)
	if err != nil {
		return 0, 0, err
	}
	flowio.MeterReader(tr, reg)
	// One record for the whole scan: its address goes to fn, so declared
	// inside the loop it would be a heap allocation per record.
	var rec Record
	for {
		rec, err = tr.Next()
		if errors.Is(err, io.EOF) {
			return kept, sampledOut, nil
		}
		if err != nil {
			return kept, sampledOut, err
		}
		if !sampler.Keep(&rec) {
			sampledOut++
			continue
		}
		kept++
		if err := fn(&rec); err != nil {
			return kept, sampledOut, err
		}
	}
}

// ReadAllTrace drains r into memory.
func ReadAllTrace(r TraceReader) ([]Record, error) { return flowio.ReadAll(r) }

// WriteAllTrace encodes records to w and flushes.
func WriteAllTrace(w TraceWriter, records []Record) error { return flowio.WriteAll(w, records) }

// CopyTrace streams all records from r to w (format conversion without
// buffering), returning the record count.
func CopyTrace(w TraceWriter, r TraceReader) (int, error) {
	return flowio.Copy(w, r)
}

// Observability. Attach a Metrics registry to Config.Metrics (and to
// ScanTraceFile) to collect per-stage wall times,
// candidate-set sizes, and I/O volumes from a run; a nil registry keeps
// every hot path instrument-free.
type (
	// Metrics collects counters, gauges, and stage timings from an
	// instrumented pipeline run. The zero value is not usable; a nil
	// *Metrics is a valid no-op sink.
	Metrics = metrics.Registry
	// MetricsSnapshot is a consistent point-in-time view of a Metrics
	// registry, serializable as JSON or Prometheus-style text.
	MetricsSnapshot = metrics.Snapshot
)

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return metrics.New() }

// PruneReport summarizes the θ_hm pruning kernel's pair accounting from
// an instrumented run wide enough to engage it (θ_hm prunes on its own
// from about a thousand clusterable hosts up): how many of the
// n·(n−1)/2 candidate pairs were skipped by each pruning layer — never
// touched because the mean index put them outside the cut's band, or
// discarded by the CDF bound — versus evaluated exactly (PairsTotal =
// Exact + PrunedIndex + PrunedBound). Calibration counts the exact evaluations the
// auto-calibration mini-matrix paid on top of the main matrix.
// ExactFraction is the run's headline economy — the share of pairs that
// paid an exact EMD evaluation, calibration included.
type PruneReport struct {
	PairsTotal    int64   `json:"pairs_total"`
	Exact         int64   `json:"exact"`
	PrunedIndex   int64   `json:"pruned_index"`
	PrunedBound   int64   `json:"pruned_bound"`
	Gated         int64   `json:"gated"`
	Calibration   int64   `json:"calibration,omitempty"`
	ExactFraction float64 `json:"exact_fraction"`
}

// PruneSummary derives a PruneReport from a snapshot's distmatrix and
// calibration counters. The second return is false when the snapshot
// holds no gated-matrix activity — no θ_hm population in the run was
// wide enough to prune.
func PruneSummary(snap MetricsSnapshot) (PruneReport, bool) {
	total := snap.Counters["distmatrix/pairs_total"]
	if total == 0 {
		return PruneReport{}, false
	}
	r := PruneReport{
		PairsTotal:  total,
		Exact:       snap.Counters["distmatrix/pairs"],
		PrunedIndex: snap.Counters["distmatrix/pairs_pruned_index"],
		PrunedBound: snap.Counters["distmatrix/pairs_pruned_bound"],
		Gated:       snap.Counters["distmatrix/pairs_gated"],
		Calibration: snap.Counters["pipeline/hm/calibration_pairs"],
	}
	r.ExactFraction = float64(r.Exact+r.Calibration) / float64(total)
	return r, true
}

// Live collection: a UDP listener decodes NetFlow v5/v9, IPFIX, and
// sFlow v5 export packets from border routers (or flowreplay) and
// hands the records to a Handler — typically a WindowedDetector for
// continuous detection off the wire. The socket path is batched
// (recvmmsg on Linux) and allocation-free at steady state, with an
// optional deterministic 1-in-N flow-sampling stage
// (CollectorConfig.SampleN). See internal/collector and
// internal/ingest for the full dataflow.
type (
	// CollectorConfig shapes a live flow collector.
	CollectorConfig = collector.Config
	// Collector ingests flow export packets from a UDP socket.
	Collector = collector.Collector
	// FlowSampler is the deterministic content-hash 1-in-N sampling
	// stage: the same (N, Seed) keeps the same flow set no matter how
	// the stream is split, merged, or reordered.
	FlowSampler = ingest.Sampler
)

// ListenNetFlow binds the collector's UDP socket; drive it with Run.
func ListenNetFlow(cfg CollectorConfig) (*Collector, error) { return collector.Listen(cfg) }

// ExportProtocol is one row of the collector's export-protocol table.
// Append encodes records as one datagram numbered seq; advance seq by
// SeqStep(len(records)) — records for v5 and IPFIX, one per datagram
// for sFlow, each protocol's native unit.
type ExportProtocol = collector.Protocol

// LookupExportProtocol returns the row called name if a software
// exporter can speak it (every row but NetFlow v9, whose templates make
// it a session protocol); the error lists the rows it can.
func LookupExportProtocol(name string) (*ExportProtocol, error) {
	return collector.ExportProtocol(name)
}

// ExportProtocolNames lists what LookupExportProtocol accepts.
func ExportProtocolNames() string { return collector.ExportProtocolNames() }

// Durable state: checkpoint/restore for crash-safe continuous
// detection. A CheckpointManager owns a snapshot file and a per-record
// write-ahead log (written out ahead of every emitted window) under
// EngineConfig.StateDir; restarting a dead process with the same
// configuration and calling Recover rebuilds the engine bit-identically —
// same window boundaries, same verdicts. See internal/checkpoint and
// DESIGN.md §4e.
type (
	// CheckpointConfig shapes a CheckpointManager.
	CheckpointConfig = checkpoint.Config
	// CheckpointManager ties a WindowedDetector to its durable state:
	// WAL-ahead ingest, periodic atomic snapshots, crash recovery.
	CheckpointManager = checkpoint.Manager
	// CheckpointRecovery summarizes what recovery found on disk.
	CheckpointRecovery = checkpoint.RecoveryInfo
)

// File names a CheckpointManager uses inside its state directory.
const (
	// CheckpointSnapshotFile is the snapshot file's name.
	CheckpointSnapshotFile = checkpoint.SnapshotFile
	// CheckpointWALFile is the write-ahead log's name.
	CheckpointWALFile = checkpoint.WALFile
)

// NewCheckpointManager binds durable state to a freshly constructed
// detector. Call Recover before feeding records, even on a cold start.
func NewCheckpointManager(cfg CheckpointConfig, eng *WindowedDetector) (*CheckpointManager, error) {
	return checkpoint.NewManager(cfg, eng)
}

// Distributed detection: the pipeline split into a shard-local phase
// (per-host feature reduction and θ_hm histogram sketches, computed by
// N ShardWorker processes over disjoint host-hash slices) and a global
// phase (population percentiles, EMD clustering, community graph, run
// by one Coordinator over the merged ShardSummary frames). The split is
// bit-identical to a single process: see DESIGN.md §5b and the
// TestDistributedGolden equivalence suite.
type (
	// ShardSummary is one shard's contribution to one detection window.
	ShardSummary = core.ShardSummary
	// CoordinatorConfig shapes a distributed deployment's coordinator.
	CoordinatorConfig = dist.CoordinatorConfig
	// Coordinator accepts shard connections and runs the global phase.
	Coordinator = dist.Coordinator
	// ShardWorkerConfig shapes one shard process.
	ShardWorkerConfig = dist.WorkerConfig
	// ShardWorker runs the shard-local phase and streams summaries to
	// the coordinator with at-least-once delivery.
	ShardWorker = dist.ShardWorker
	// DistCluster is an in-process distributed deployment over pipe
	// transports, for tests and experimentation.
	DistCluster = dist.DistCluster
)

// ShardOf hashes an address onto one of n shards — the one shard
// assignment every layer of the system agrees on.
func ShardOf(ip IP, n int) int { return flow.ShardOf(ip, n) }

// NewFeatureSet wraps an extracted per-host feature map as an immutable
// FeatureSource for the given window.
func NewFeatureSet(feats map[IP]*HostFeatures, window Window) *FeatureSet {
	return flow.NewFeatureSet(feats, window)
}

// LocalPass runs the shard-local phase over one sealed window's feature
// source (shard 0 of 1 covers the whole population).
func LocalPass(src FeatureSource, cfg Config, shard, shards int) (*ShardSummary, error) {
	return core.LocalPass(src, cfg, shard, shards)
}

// MergeShardSummaries combines disjoint shard summaries of one window
// into the single-process summary.
func MergeShardSummaries(sums []*ShardSummary) (*ShardSummary, error) {
	return core.MergeSummaries(sums)
}

// NewCoordinator creates a distributed deployment's coordinator; drive
// it with Coordinator.Listen (TCP) or Coordinator.ServeConn (any
// net.Conn transport).
func NewCoordinator(cfg CoordinatorConfig, emit func(*WindowResult) error) (*Coordinator, error) {
	return dist.NewCoordinator(cfg, emit)
}

// NewShardWorker creates one shard process's worker.
func NewShardWorker(cfg ShardWorkerConfig) (*ShardWorker, error) {
	return dist.NewShardWorker(cfg)
}

// NewDistCluster wires cfg.Shards workers to a coordinator over
// in-process pipes — the whole distributed pipeline without sockets.
func NewDistCluster(cfg CoordinatorConfig, emit func(*WindowResult) error) (*DistCluster, error) {
	return dist.NewDistCluster(cfg, emit)
}
