package core

import (
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

func TestPortModelScalesTerms(t *testing.T) {
	m := perf.Model{A: 1000, B: 0.01, C: 1.2, D: 50}
	hw := Hardware{ParallelSpeedup: 4, SerialSpeedup: 1.5, CommSpeedup: 2}
	p := PortModel(m, hw)
	if p.A != 250 || p.D != 50/1.5 || p.B != 0.005 || p.C != 1.2 {
		t.Fatalf("ported = %+v", p)
	}
	// Zero speedups default to 1 (no change).
	same := PortModel(m, Hardware{})
	if same != m {
		t.Fatalf("identity port changed the model: %+v", same)
	}
}

func TestForecastAmdahlTrap(t *testing.T) {
	// 4x parallel speedup with an unimproved serial floor must deliver
	// less than 4x end-to-end, and strictly more than 1x.
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 512)
	hw := Hardware{Name: "nextgen", ParallelSpeedup: 4, SerialSpeedup: 1, CommSpeedup: 1}
	f, err := ForecastHardware(s, hw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Speedup <= 1.05 {
		t.Fatalf("speedup %v, expected clear gain", f.Speedup)
	}
	if f.Speedup >= 4 {
		t.Fatalf("speedup %v >= component speedup 4 — Amdahl violated", f.Speedup)
	}
	t.Logf("predicted end-to-end speedup on %s: %.2fx (component 4x)", hw.Name, f.Speedup)
}

func TestForecastBalancedSpeedup(t *testing.T) {
	// Uniform 2x on everything must give exactly 2x at the same optimal
	// allocation (the optimization problem just rescales).
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	hw := Hardware{ParallelSpeedup: 2, SerialSpeedup: 2, CommSpeedup: 2}
	f, err := ForecastHardware(s, hw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Speedup < 1.99 || f.Speedup > 2.01 {
		t.Fatalf("uniform 2x gave %v", f.Speedup)
	}
}

func TestForecastShiftsCostEfficientSize(t *testing.T) {
	// A machine whose serial part does not improve saturates earlier: the
	// cost-efficient node count on it must not exceed the baseline's.
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 512)
	sizes := []int{64, 128, 256, 512}
	baseAdv, err := AdviseNodeCount(s, sizes, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	ported := PortSpec(s, Hardware{ParallelSpeedup: 8, SerialSpeedup: 1, CommSpeedup: 1})
	portAdv, err := AdviseNodeCount(ported, sizes, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if portAdv.CostEfficient > baseAdv.CostEfficient {
		t.Fatalf("serial-bound machine recommends MORE nodes (%d > %d)",
			portAdv.CostEfficient, baseAdv.CostEfficient)
	}
}
