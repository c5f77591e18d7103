package core

import (
	"testing"

	"hslb/internal/cesm"
)

func TestAdviseNodeCount(t *testing.T) {
	spec := truthSpec(cesm.Res1Deg, cesm.Layout1, 0 /* overwritten per size */)
	spec.TotalNodes = 128 // placeholder for Validate inside SolveAllocation
	sizes := []int{64, 128, 256, 512, 1024}
	adv, err := AdviseNodeCount(spec, sizes, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Points) != len(sizes) {
		t.Fatalf("points = %d", len(adv.Points))
	}
	// Times must be non-increasing with machine size (CESM is scalable in
	// this regime), so shortest-time is the largest size.
	for i := 1; i < len(adv.Points); i++ {
		if adv.Points[i].Predicted > adv.Points[i-1].Predicted*1.02 {
			t.Errorf("total time increased: %v", adv.Points)
		}
	}
	if adv.ShortestTime != 1024 {
		t.Errorf("ShortestTime = %d, want 1024", adv.ShortestTime)
	}
	// Efficiency is 1 at the baseline and decreases (Amdahl).
	if adv.Points[0].Efficiency != 1 {
		t.Errorf("baseline efficiency = %v", adv.Points[0].Efficiency)
	}
	last := adv.Points[len(adv.Points)-1].Efficiency
	if last >= adv.Points[1].Efficiency {
		t.Errorf("efficiency did not decay: %v then %v", adv.Points[1].Efficiency, last)
	}
	// Cost-efficient recommendation lies between the extremes (with a 0.7
	// threshold it should not be the whole machine).
	if adv.CostEfficient < 64 || adv.CostEfficient > 1024 {
		t.Errorf("CostEfficient = %d", adv.CostEfficient)
	}
	if adv.Points[len(adv.Points)-1].CoreHoursPerSimYear <= adv.Points[0].CoreHoursPerSimYear {
		t.Errorf("bigger machines should cost more core-hours per simulated year: %v", adv.Points)
	}
}

func TestAdviseNodeCountEmpty(t *testing.T) {
	spec := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	if _, err := AdviseNodeCount(spec, nil, 0.7); err != ErrNoCandidates {
		t.Fatalf("err = %v", err)
	}
}

func TestAdviseThresholdMonotone(t *testing.T) {
	spec := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	sizes := []int{64, 256, 1024}
	strict, err := AdviseNodeCount(spec, sizes, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	lax, err := AdviseNodeCount(spec, sizes, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if strict.CostEfficient > lax.CostEfficient {
		t.Errorf("stricter threshold recommended more nodes: %d > %d",
			strict.CostEfficient, lax.CostEfficient)
	}
}
