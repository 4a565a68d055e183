package eval

import (
	"math/rand"
	"testing"

	"plotters/internal/core"
	"plotters/internal/flow"
	"plotters/internal/overlay"
	"plotters/internal/synth"
)

// TestPortGroupSeparation pins the paper's §VI suggestion against the
// blended pipeline where it matters: every bot rides on a Trader host.
// Each day overlays min(traders, bots) bots, Storm's first, onto that
// day's Trader hosts; separating each host's traffic by port group must
// recover at least half the bot host-days more than the blended pipeline
// does, with no more false flags. Run with -v for the table EXPERIMENTS.md
// reports.
func TestPortGroupSeparation(t *testing.T) {
	ds, _ := corpus(t)
	cfg := core.DefaultConfig()
	var bots, blendedTP, blendedFP, groupTP, groupFP int
	for i, day := range ds.Days {
		onTraders := func(ip flow.IP) bool { _, ok := day.TraderHosts[ip]; return ok }
		storm, nugache := StormTrace(ds), NugacheTrace(ds)
		n := min(len(day.TraderHosts), len(storm.Bots)+len(nugache.Bots))
		storm.Bots = storm.Bots[:min(n, len(storm.Bots))]
		nugache.Bots = nugache.Bots[:n-len(storm.Bots)]
		ov, err := overlay.Overlay(rand.New(rand.NewSource(int64(i))), day.Records, day.Window, onTraders, storm, nugache)
		if err != nil {
			t.Fatal(err)
		}

		blended, err := core.FindPlotters(ov.Records, synth.IsInternal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		byApp, err := core.FindPlottersByApplication(ov.Records, synth.IsInternal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		grouped := make(core.HostSet, len(byApp.Suspects))
		for h := range byApp.Suspects {
			grouped[h] = true
		}
		score := func(suspects core.HostSet) (tp, fp int) {
			for h := range suspects {
				if _, ok := ov.BotHosts[h]; ok {
					tp++
				} else {
					fp++
				}
			}
			return tp, fp
		}
		btp, bfp := score(blended.Suspects)
		gtp, gfp := score(grouped)
		t.Logf("day %d: %d bots on %d traders; blended %d caught, %d false; port-group %d caught, %d false",
			i, n, len(day.TraderHosts), btp, bfp, gtp, gfp)
		bots += n
		blendedTP, blendedFP = blendedTP+btp, blendedFP+bfp
		groupTP, groupFP = groupTP+gtp, groupFP+gfp
	}
	t.Logf("total: blended %d/%d caught, %d false; port-group %d/%d caught, %d false",
		blendedTP, bots, blendedFP, groupTP, bots, groupFP)
	if blendedRecall, groupRecall := frac(blendedTP, bots), frac(groupTP, bots); groupRecall < blendedRecall+0.5 {
		t.Errorf("port-group recall %.2f, want >= blended %.2f + 0.5", groupRecall, blendedRecall)
	}
	if groupFP > blendedFP {
		t.Errorf("port-group false flags %d > blended %d", groupFP, blendedFP)
	}
}
