package bench

import (
	"strings"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

func TestDefaultAllocationValid(t *testing.T) {
	for _, res := range []cesm.Resolution{cesm.Res1Deg, cesm.Res8thDeg} {
		for _, total := range []int{16, 64, 128, 512, 2048, 8192, 32768} {
			a := DefaultAllocation(res, cesm.Layout1, total)
			cfg := cesm.Config{Resolution: res, Layout: cesm.Layout1, TotalNodes: total, Alloc: a}
			if err := cesm.ValidateConfig(cfg); err != nil {
				t.Errorf("res=%v total=%d: %v (alloc %v)", res, total, err, a)
			}
		}
	}
}

func TestCampaignRunCollectsSamples(t *testing.T) {
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: perf.SamplingPlan(128, 2048, 5),
		Seed:       1,
	}
	data, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if data.Runs != 5 {
		t.Fatalf("Runs = %d, want 5", data.Runs)
	}
	for _, comp := range cesm.OptimizedComponents {
		s := data.Samples[comp]
		if len(s) != 5 {
			t.Fatalf("%v has %d samples", comp, len(s))
		}
		for i := 1; i < len(s); i++ {
			if s[i].Nodes < s[i-1].Nodes {
				t.Fatalf("%v samples not sorted: %v", comp, s)
			}
		}
		for _, smp := range s {
			if smp.Time <= 0 || smp.Nodes <= 0 {
				t.Fatalf("%v bad sample %+v", comp, smp)
			}
		}
	}
}

func TestCampaignRepeats(t *testing.T) {
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128, 512},
		Repeats:    3,
		Seed:       1,
	}
	data, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if data.Runs != 6 {
		t.Fatalf("Runs = %d, want 6", data.Runs)
	}
	if len(data.Samples[cesm.ATM]) != 6 {
		t.Fatalf("ATM samples = %d", len(data.Samples[cesm.ATM]))
	}
}

func TestCampaignErrors(t *testing.T) {
	if _, err := (Campaign{}).Run(); err != ErrNoCounts {
		t.Errorf("empty campaign err = %v", err)
	}
	if _, err := (Campaign{NodeCounts: []int{2}}).Run(); err == nil {
		t.Error("tiny node count accepted")
	}
}

func TestFitAllProducesGoodFits(t *testing.T) {
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 2048, 6),
		Seed:       3,
	}
	data, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	fits, err := data.FitAll(perf.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []cesm.Component{cesm.ATM, cesm.OCN, cesm.LND} {
		if fits[comp].R2 < 0.99 {
			t.Errorf("%v R² = %v, want ≈1 (paper: R² very close to 1)", comp, fits[comp].R2)
		}
	}
	// Ice is allowed to fit worse (decomposition noise) but must still be
	// a usable fit.
	if fits[cesm.ICE].R2 < 0.90 {
		t.Errorf("ICE R² = %v, too poor even for the noisy component", fits[cesm.ICE].R2)
	}
	models := Models(fits)
	if len(models) != 4 {
		t.Fatalf("Models len = %d", len(models))
	}
	// Fitted curves should interpolate near the machine truth for the
	// well-behaved components.
	truth := cesm.TruthModel(cesm.Res1Deg, cesm.ATM)
	fit := models[cesm.ATM]
	for _, n := range []float64{100, 400, 1200} {
		rel := (fit.Eval(n) - truth.Eval(n)) / truth.Eval(n)
		if rel > 0.05 || rel < -0.05 {
			t.Errorf("ATM fit off by %.1f%% at n=%v", rel*100, n)
		}
	}
}

func TestCustomAllocator(t *testing.T) {
	called := 0
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128},
		Seed:       1,
		Allocate: func(res cesm.Resolution, layout cesm.Layout, total int) cesm.Allocation {
			called++
			return cesm.Allocation{Atm: 104, Ocn: 24, Ice: 80, Lnd: 24}
		},
	}
	data, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Fatalf("allocator called %d times", called)
	}
	if data.Samples[cesm.ICE][0].Nodes != 80 {
		t.Fatalf("custom allocation not used: %+v", data.Samples[cesm.ICE][0])
	}
}

// TestFitAllReportsErrorsInComponentOrder: the components are fitted
// concurrently, but the error returned is the first in
// cesm.OptimizedComponents order, whichever fit finished first.
func TestFitAllReportsErrorsInComponentOrder(t *testing.T) {
	good := []perf.Sample{{Nodes: 16, Time: 100}, {Nodes: 32, Time: 55}, {Nodes: 64, Time: 32}, {Nodes: 128, Time: 20}}
	short := good[:2]
	d := &Data{Samples: map[cesm.Component][]perf.Sample{
		cesm.LND: good, cesm.ICE: short, cesm.ATM: good, cesm.OCN: short,
	}}
	for range 20 {
		_, err := d.FitAll(perf.FitOptions{})
		if err == nil || !strings.Contains(err.Error(), "fitting "+cesm.ICE.String()+":") {
			t.Fatalf("err = %v, want the ice fit's error", err)
		}
	}
}

// BenchmarkFitAll times HSLB step 2 on the campaign experiments.FitModels
// gathers (six node counts, two repeats, fit seed 1) at each resolution.
func BenchmarkFitAll(b *testing.B) {
	for _, tc := range []struct {
		res  cesm.Resolution
		plan []int
	}{
		{cesm.Res1Deg, perf.SamplingPlan(64, 2048, 6)},
		{cesm.Res8thDeg, perf.SamplingPlan(1024, 32768, 6)},
	} {
		data, err := Campaign{Resolution: tc.res, Layout: cesm.Layout1, NodeCounts: tc.plan, Repeats: 2, Seed: 1}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.res.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := data.FitAll(perf.FitOptions{ConvexExponent: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
