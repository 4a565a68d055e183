package checkpoint_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/core"
	"plotters/internal/engine"
	"plotters/internal/flow"
)

// benchShards keeps the synthetic state restorable into a small, fixed
// engine regardless of the benchmark host's CPU count.
const benchShards = 8

// benchEngineConfig matches the synthetic state built below.
func benchEngineConfig() engine.Config {
	return engine.Config{
		Window: 6 * time.Hour,
		Shards: benchShards,
		Core:   core.DefaultConfig(),
	}
}

// syntheticState builds a checkpoint-shaped engine state for the given
// campus size directly — 10k hosts mid-window, each with realistic
// table sizes (tens of peers, tens of interstitial samples) — without
// paying for feature extraction over millions of records first.
func syntheticState(hosts int) *engine.State {
	rng := rand.New(rand.NewSource(123))
	base := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
	st := &engine.State{
		Started:  true,
		Origin:   base,
		Frontier: base.Add(3 * time.Hour),
		PaneIdx:  0,
		Store:    &flow.ShardedState{Shards: make([]flow.StreamState, benchShards)},
	}
	for s := range st.Store.Shards {
		sh := &st.Store.Shards[s]
		sh.Frontier = st.Frontier
		sh.Released = base
	}
	for h := 0; h < hosts; h++ {
		ip := flow.IP(0x0a000000 + uint32(h))
		first := base.Add(time.Duration(rng.Intn(3600)) * time.Second)
		peers := 8 + rng.Intn(32)
		hs := flow.HostState{
			Feats: flow.HostFeatures{
				Host:          ip,
				Flows:         peers * 3,
				FailedFlows:   peers,
				BytesUploaded: uint64(rng.Intn(1 << 24)),
				Peers:         peers,
				NewPeers:      peers / 4,
				FirstSeen:     first,
				Interstitials: make([]float64, 24),
			},
			Dests: make([]flow.DestTimes, peers),
		}
		for i := range hs.Feats.Interstitials {
			hs.Feats.Interstitials[i] = rng.Float64() * 300
		}
		for i := 0; i < peers; i++ {
			dst := flow.IP(0xc0000000 + uint32(h*64+i))
			at := first.Add(time.Duration(i) * time.Minute)
			hs.Dests[i] = flow.DestTimes{Dst: dst, First: at, Last: at.Add(30 * time.Minute)}
		}
		sh := &st.Store.Shards[int(ip)%benchShards]
		sh.Hosts = append(sh.Hosts, hs)
	}
	return st
}

func benchSnapshot() *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Created:  time.Date(2007, 11, 5, 12, 0, 0, 0, time.UTC),
			WALSeq:   1 << 20,
			Geometry: engine.Geometry{Window: 6 * time.Hour, Grace: time.Hour, Shards: benchShards},
		},
		Engine: syntheticState(10_000),
	}
}

// BenchmarkSnapshotEncode measures serializing a 10k-host campus
// deployment — the work the periodic checkpointer does under the
// ingest lock. The budget: well under one pane interval (minutes).
func BenchmarkSnapshotEncode(b *testing.B) {
	snap := benchSnapshot()
	data, err := checkpoint.Encode(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Encode(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures the cold-start path: decode the
// snapshot bytes and rebuild a live engine from them.
func BenchmarkSnapshotRestore(b *testing.B) {
	data, err := checkpoint.Encode(benchSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := checkpoint.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(benchEngineConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.RestoreState(snap.Engine); err != nil {
			b.Fatal(err)
		}
	}
}

// dayStream is a day-shaped record stream as a collector delivers it:
// a campus of initiators, flows arriving on average every 0.32 s (a
// day's 270k records), each reported when it ends, so starts run up to
// a minute out of order; uploads spread over five orders of magnitude
// and one flow in five failed.
func dayStream(n int) []flow.Record {
	rng := rand.New(rand.NewSource(56))
	base := time.Date(2007, 11, 5, 9, 0, 0, 0, time.UTC)
	out := make([]flow.Record, n)
	var now time.Duration
	for i := range out {
		now += time.Duration(rng.ExpFloat64() * float64(320*time.Millisecond))
		dur := time.Duration(rng.Int63n(int64(time.Minute)))
		r := &out[i]
		*r = flow.Record{
			Src: flow.IP(0x80020000 + rng.Intn(2000)), Dst: flow.IP(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Proto: flow.TCP,
			Start: base.Add(now - dur), End: base.Add(now),
			SrcPkts: 3, DstPkts: 2, SrcBytes: uint64(40 * math.Pow(10, 5*rng.Float64())), DstBytes: 300,
			State: flow.StateEstablished,
		}
		if rng.Intn(5) == 0 {
			r.State, r.Proto = flow.StateFailed, flow.UDP
		}
	}
	return out
}

// BenchmarkWALAppend measures the per-record durability tax on the
// ingest path with the sync policy out of reach: validate and encode
// each record into the open frame, plus one CRC and one write(2) per
// frame of walFrameMax records. It reports the log's bytes per record.
func BenchmarkWALAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), checkpoint.WALFile)
	w, _, err := checkpoint.OpenWAL(path, 1<<30, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	stream := dayStream(1 << 16)
	size := w.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(&stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Size()-size)/float64(b.N), "B/record")
}
