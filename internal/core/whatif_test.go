package core

import (
	"testing"

	"hslb/internal/cesm"
)

func TestEffectOfOceanConstraint(t *testing.T) {
	spec := truthSpec(cesm.Res8thDeg, cesm.Layout1, 0)
	spec.TotalNodes = 8192 // placeholder; overwritten per size
	pts, err := EffectOfOceanConstraint(spec, []int{8192, 32768})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// Lifting a constraint can only help.
		if p.Penalty < -0.01 {
			t.Errorf("n=%d: negative penalty %v", p.TotalNodes, p.Penalty)
		}
	}
	// §IV-B: the constraint costs little at 8192 ("relatively unchanged")
	// but a lot at 32768 (~40% predicted).
	if pts[0].Penalty > 0.15 {
		t.Errorf("8192 penalty %v, expected small", pts[0].Penalty)
	}
	if pts[1].Penalty < 0.15 {
		t.Errorf("32768 penalty %v, expected large (paper ≈ 0.4)", pts[1].Penalty)
	}
}

func TestEffectOfReplacement(t *testing.T) {
	spec := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	// A 2x faster ocean model.
	fastOcn := ScaledModel(spec.Perf[cesm.OCN], 2)
	effs, err := EffectOfReplacement(spec, cesm.OCN, fastOcn, []int{128, 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range effs {
		if e.Speedup < 1 {
			t.Errorf("n=%d: faster ocean slowed the model down (%v)", e.TotalNodes, e.Speedup)
		}
		if e.Speedup > 2.01 {
			t.Errorf("n=%d: speedup %v exceeds the component speedup", e.TotalNodes, e.Speedup)
		}
		// The optimizer should give the faster ocean fewer (or equal) nodes
		// and spend them elsewhere.
		if e.AllocAfter.Ocn > e.AllocBefore.Ocn {
			t.Errorf("n=%d: faster ocean got more nodes (%v -> %v)",
				e.TotalNodes, e.AllocBefore, e.AllocAfter)
		}
	}
}

func TestScaledModel(t *testing.T) {
	m := truthSpec(cesm.Res1Deg, cesm.Layout1, 128).Perf[cesm.OCN]
	f := ScaledModel(m, 2)
	for _, n := range []float64{4, 24, 384} {
		if got, want := f.Eval(n), m.Eval(n)/2; got < want*0.999 || got > want*1.001 {
			t.Fatalf("scaled eval at %v: %v, want %v", n, got, want)
		}
	}
}
