package core_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"plotters/internal/core"
	"plotters/internal/dist"
	"plotters/internal/flow"
)

// localPassConfig is the corpus's clustering config at one parallelism.
func localPassConfig(parallelism int) core.Config {
	cfg := core.DefaultConfig()
	cfg.MinInterstitialSamples = 30
	cfg.Parallelism = parallelism
	return cfg
}

// LocalPass builds a shard's sketches on Config.Parallelism workers; the
// summary it ships must not depend on how many: the encoded frames are
// byte-identical at every setting, and no host's interstitials (which
// share their array with the sealed pane) are reordered.
func TestLocalPassParallelMatchesSequential(t *testing.T) {
	src := flow.ExtractFeatureSet(core.ParallelCorpus(t), flow.FeatureOptions{NewPeerGrace: core.DefaultConfig().NewPeerGrace}, flow.Window{})
	before := make(map[flow.IP][]float64)
	for h, f := range src.Features() {
		before[h] = append([]float64(nil), f.Interstitials...)
	}
	var want []byte
	for _, par := range []int{1, 0, 4} {
		sum, err := core.LocalPass(src, localPassConfig(par), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := dist.EncodeSummary(0, sum)
		if par == 1 {
			want = got
			if n := len(sum.Hosts); n < 48 {
				t.Fatalf("corpus too small to exercise the parallel path: %d hosts", n)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("parallelism %d: summary frame differs from the sequential one", par)
		}
	}
	for h, f := range src.Features() {
		if !reflect.DeepEqual(f.Interstitials, before[h]) {
			t.Fatalf("host %v: LocalPass reordered its interstitials", h)
		}
	}
}

// Two hosts whose samples cannot be binned fail LocalPass with the
// lower address's error at every parallelism, as a sequential loop
// stopping at its first failure reports it.
func TestLocalPassParallelFirstError(t *testing.T) {
	src := flow.ExtractFeatureSet(core.ParallelCorpus(t), flow.FeatureOptions{NewPeerGrace: core.DefaultConfig().NewPeerGrace}, flow.Window{})
	hosts := flow.SortedHosts(src.Features())
	feats := make(map[flow.IP]*flow.HostFeatures, len(hosts))
	for _, h := range hosts {
		f := *src.Features()[h]
		feats[h] = &f
	}
	// Hosts 6 and 41 in address order fall in different workers' strides
	// at 2 and at 4 workers.
	low, high := hosts[6], hosts[41]
	for h, bad := range map[flow.IP]float64{low: math.Inf(1), high: math.NaN()} {
		f := feats[h]
		f.Interstitials = append([]float64(nil), f.Interstitials...)
		f.Interstitials[3] = bad
	}
	bad := flow.NewFeatureSet(feats, src.Window())
	for _, par := range []int{1, 0, 4} {
		_, err := core.LocalPass(bad, localPassConfig(par), 0, 1)
		if err == nil || !strings.Contains(err.Error(), "histogram for "+low.String()) {
			t.Errorf("parallelism %d: err = %v, want the histogram error of %v", par, err, low)
		}
	}
}
