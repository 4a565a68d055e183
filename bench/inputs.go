package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"plotters/internal/collector"
	"plotters/internal/core"
	"plotters/internal/eval"
	"plotters/internal/flow"
	"plotters/internal/flowio"
	"plotters/internal/synth/scenario"
)

// Window geometry shared by the three day-based workloads: the day is
// the corpus's 9:00–15:00 collection window cut into tumbling hours,
// and every pass replays it one calendar day later.
const (
	dayWindow = time.Hour
	daySkew   = 5 * time.Minute
	dayShift  = 24 * time.Hour
)

// size selects the input scale. "full" is what BENCHMARK.json measures;
// "smoke" is the scaled-down input the package test runs in seconds.
type size struct {
	name      string
	smoke     bool
	wideHosts int
}

var sizes = map[string]size{
	"full":  {name: "full", wideHosts: wideHostsFull},
	"smoke": {name: "smoke", smoke: true, wideHosts: 512},
}

// dayInput is the seed's synthetic day as a NetFlow v5 exporter would
// deliver it: the records floored to the millisecond (what every
// day-based workload and reference consumes) and the datagrams they
// were decoded from.
type dayInput struct {
	records []flow.Record
	window  flow.Window
	// datagrams are ≤30-record v5 export packets in record order;
	// baseSecs and baseSeq hold each packet's pass-0 header clock and
	// flow sequence, the two fields a later pass patches.
	datagrams [][]byte
	baseSecs  []uint32
	baseSeq   []uint32
}

// corpusSeed is the one synthetic campus every day-based workload
// replays. Different corpus seeds give campuses that differ by a quarter
// in generation time and by an eighth in state per host — 399 hosts with
// a few heavy traders are too few to average out — which would drown
// bounds of 5%. So the day's structure is fixed and --seed draws its
// address plan instead: see addressKey.
const corpusSeed = 42

// addressKey is what --seed changes about the day: every address, source
// and destination alike, has its low 16 bits XORed with the key. That is
// a bijection that keeps each /16 — and so which hosts are monitored —
// but moves every host to another address: another shard, other hash
// buckets, another place in every address-ordered step of detection.
// Seed 42 keeps the corpus as generated, which is what expected.json
// pins.
func addressKey(seed int64) flow.IP {
	if seed == corpusSeed {
		return 0
	}
	x := uint64(seed) + 0x9E3779B97F4A7C15 // splitmix64
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return flow.IP((x ^ (x >> 31)) & 0xFFFF)
}

// generateCorpus synthesises the corpus day exactly as the evaluation
// suite does: dataset seed 42, overlay seed 43.
func generateCorpus(sz size) ([]flow.Record, flow.Window, error) {
	cfg := scenario.DefaultDatasetConfig(corpusSeed)
	cfg.Days = 1
	pipe := core.DefaultConfig()
	if sz.smoke {
		// The scaled-down day of the repo's loopback golden tests.
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
	}
	ds, err := scenario.GenerateDataset(cfg)
	if err != nil {
		return nil, flow.Window{}, err
	}
	day, err := eval.Overlay(ds.Days[0], eval.StormTrace(ds), eval.NugacheTrace(ds), corpusSeed+1, pipe)
	if err != nil {
		return nil, flow.Window{}, err
	}
	return day.Records, ds.Days[0].Window, nil
}

// corpus returns the corpus day. Synthesising it takes twelve seconds
// and does not depend on --seed, so it is done once per build of the
// benchmark and kept in dir: a 16-byte window (from, to in Unix
// nanoseconds) followed by a flowio binary trace, which is lossless.
// The file is named after a hash of the running executable, so a change
// to the generator — or to anything else — can never meet a stale
// corpus.
func corpus(sz size, dir string) ([]flow.Record, flow.Window, error) {
	path, err := corpusPath(sz, dir)
	if err != nil {
		return nil, flow.Window{}, err
	}
	if records, window, err := readCorpus(path); err == nil {
		return records, window, nil
	}
	records, window, err := generateCorpus(sz)
	if err != nil {
		return nil, flow.Window{}, err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "corpus-"+sz.name+"-*.flows")) // the pattern is well formed
	for _, old := range stale {
		os.Remove(old)
	}
	return records, window, writeCorpus(path, records, window)
}

func corpusPath(sz size, dir string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("corpus-%s-%x.flows", sz.name, h.Sum(nil)[:8])), nil
}

func readCorpus(path string) ([]flow.Record, flow.Window, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, flow.Window{}, err
	}
	if len(raw) < 16 {
		return nil, flow.Window{}, fmt.Errorf("bench: %s is truncated", path)
	}
	window := flow.Window{
		From: time.Unix(0, int64(binary.LittleEndian.Uint64(raw[0:]))).UTC(),
		To:   time.Unix(0, int64(binary.LittleEndian.Uint64(raw[8:]))).UTC(),
	}
	records, err := flowio.ReadAllBinary(bytes.NewReader(raw[16:]))
	return records, window, err
}

// writeCorpus writes beside path and renames, so a reader never sees a
// half-written corpus.
func writeCorpus(path string, records []flow.Record, window flow.Window) error {
	var buf bytes.Buffer
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(window.From.UnixNano())))
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(window.To.UnixNano())))
	if err := flowio.WriteAllBinary(&buf, records); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// synthDay takes the corpus day, re-addresses it for the seed and
// quantises it through the v5 codec.
func synthDay(seed int64, sz size, dir string) (*dayInput, error) {
	raw, window, err := corpus(sz, dir)
	if err != nil {
		return nil, err
	}
	in := &dayInput{window: window}
	if key := addressKey(seed); key != 0 {
		for i := range raw {
			raw[i].Src ^= key
			raw[i].Dst ^= key
		}
	}
	if !sort.SliceIsSorted(raw, func(i, j int) bool { return raw[i].Start.Before(raw[j].Start) }) {
		return nil, fmt.Errorf("bench: overlaid day is not in start order")
	}
	in.records = make([]flow.Record, 0, len(raw))
	var seq uint32
	for len(raw) > 0 {
		n := min(len(raw), collector.V5MaxRecords)
		pkt, err := collector.AppendV5(nil, raw[:n], seq)
		if err != nil {
			return nil, err
		}
		if _, in.records, err = collector.DecodeV5(pkt, in.records); err != nil {
			return nil, err
		}
		in.datagrams = append(in.datagrams, pkt)
		in.baseSecs = append(in.baseSecs, binary.BigEndian.Uint32(pkt[8:]))
		in.baseSeq = append(in.baseSeq, seq)
		seq += uint32(n)
		raw = raw[n:]
	}
	return in, nil
}

// patch rewrites datagram i's export clock and flow sequence for the
// given pass: +24 h and +one day's worth of flows per pass. Record
// offsets are relative to the header clock, so every decoded timestamp
// moves by exactly the shift and nothing is re-encoded.
func (in *dayInput) patch(i, pass int) []byte {
	pkt := in.datagrams[i]
	binary.BigEndian.PutUint32(pkt[8:], in.baseSecs[i]+uint32(pass)*uint32(dayShift/time.Second))
	binary.BigEndian.PutUint32(pkt[16:], in.baseSeq[i]+uint32(pass)*uint32(len(in.records)))
	return pkt
}

// windows returns how many tumbling windows one pass spans.
func (in *dayInput) windows() int {
	return int((in.window.Duration() + dayWindow - 1) / dayWindow)
}

// triggers returns, for each window of a pass, the index of the first
// record whose start proves the window complete (start ≥ window end +
// skew), or len(records) when only the next pass's first record does.
func triggers(records []flow.Record, origin time.Time, window, skew time.Duration, n int) []int {
	out := make([]int, n)
	for w := range out {
		limit := origin.Add(time.Duration(w+1)*window + skew)
		out[w] = sort.Search(len(records), func(i int) bool { return !records[i].Start.Before(limit) })
	}
	return out
}

// The detection-bound population: hosts on the 37 geometrically spaced
// timer families of the repo's θ_hm benchmarks. Every second host is a
// light one — few flows, few failures — which the initial reduction
// discards, as it does the non-P2P half of a campus. The others
// re-contact five stored peers often enough to clear
// MinInterstitialSamples, with failed rate and bytes per flow drawn per
// host from the seed. θ_vol and θ_churn each keep about half of them,
// and the halves are made to differ — hosts that send little per flow
// come back two hours later for several one-off contacts, the others
// for few or none — so every host that clears the reduction reaches
// θ_hm: the population is the quadratic stage's worst case, not a
// typical campus.
const (
	wideHostsFull    = 8192
	wideFlowsPerHost = 112
	wideFlowsLight   = 24
	wideStoredPeers  = 5
	wideFreshPeers   = 6 // at most this many one-off contacts after the schedule
	wideBytesMax     = 4000
	// wideWindow holds the slowest family's whole schedule (112 gaps of
	// ~13 min with lognormal jitter) with room to spare.
	wideWindow = 36 * time.Hour
)

// wideInput is one window's worth of records in start order.
type wideInput struct {
	records []flow.Record
	origin  time.Time
}

func synthWide(seed int64, hosts int) *wideInput {
	rng := rand.New(rand.NewSource(seed))
	origin := time.Date(2007, time.November, 5, 0, 0, 0, 0, time.UTC)
	records := make([]flow.Record, 0, hosts*(wideFlowsPerHost+wideFlowsLight)/2)
	for i := 0; i < hosts; i++ {
		base := 5 * math.Pow(1.15, float64(i%37)) * float64(time.Second)
		flows, failP := wideFlowsLight, rng.Float64()*0.1
		if i%2 == 0 {
			flows, failP = wideFlowsPerHost, 0.2+rng.Float64()*0.3
		}
		bytes := uint64(100 + rng.Intn(wideBytesMax))
		fresh := rng.Intn(wideFreshPeers / 2)
		// The split sits a little above the median so that τ_churn falls
		// among the many-contact hosts and keeps every other one.
		if bytes < 100+wideBytesMax*11/20 {
			fresh = wideFreshPeers - fresh
		}
		src := flow.IP(0x80020000 + uint32(i))
		at := origin.Add(time.Duration(rng.Int63n(int64(10 * time.Minute)))).Truncate(time.Millisecond)
		for j := 0; j < flows; j++ {
			dst := flow.IP(0x08000000 + uint32(i*7+j%wideStoredPeers))
			if j >= flows-fresh {
				dst = flow.IP(0x09000000 + uint32(i*8+j%8))
				if j == flows-fresh {
					// Past the new-peer grace hour whatever the timer.
					at = at.Add(2 * time.Hour)
				}
			}
			state := flow.StateEstablished
			if j > 0 && rng.Float64() < failP {
				state = flow.StateFailed
			}
			records = append(records, flow.Record{
				Src: src, Dst: dst,
				SrcPort: 40000, DstPort: 80, Proto: flow.TCP,
				Start: at, End: at.Add(time.Second),
				SrcPkts: 2, DstPkts: 2, SrcBytes: bytes, DstBytes: 400,
				State: state,
			})
			gap := base * math.Exp(rng.NormFloat64()*0.35)
			at = at.Add(time.Duration(gap)).Truncate(time.Millisecond)
		}
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Start.Before(records[j].Start) })
	return &wideInput{records: records, origin: origin}
}
