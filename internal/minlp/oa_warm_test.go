package minlp

import "testing"

// TestOAWarmStartsEngage: the outer-approximation node loop must answer
// repeat LPs from the cached basis (the whole point of the warm solver),
// and the warm-started run must reach the same certified optimum.
func TestOAWarmStartsEngage(t *testing.T) {
	m := tableIModel(96, true)
	r, err := Solve(m, Options{Algorithm: OuterApprox, BranchSOS: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.LPWarm.WarmResolves == 0 {
		t.Fatalf("no warm LP resolves recorded: %+v (cut rounds should re-solve warm)", r.LPWarm)
	}
	// Agreement with the enumerated optimum of the same model guards
	// against a warm-path wrong answer hiding behind a plausible objective.
	if want := bruteTableI(96, true); !approxEq(r.Obj, want, 1e-5) {
		t.Fatalf("OA obj %v disagrees with the enumerated optimum %v", r.Obj, want)
	}
}
