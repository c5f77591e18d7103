package core

import (
	"math"
	"strings"
	"testing"

	"hslb/internal/ampl"
	"hslb/internal/cesm"
	"hslb/internal/minlp"
)

func TestWriteAMPLParses(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
	src, err := WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"param N := 64;", "var n_atm integer", "minimize total_time: T;",
		"set OCN_SET", "z_ocn_pick", "cap_atm_ocn"} {
		if !strings.Contains(src, want) {
			t.Errorf("AMPL missing %q:\n%s", want, src)
		}
	}
	if _, err := ampl.Parse(src); err != nil {
		t.Fatalf("generated AMPL does not parse: %v\n%s", err, src)
	}
}

func TestWriteAMPLSolvesToSameOptimum(t *testing.T) {
	// The AMPL path (generate → parse → solve) is the BuildModel path, so
	// it must walk the same tree to the same objective bits.
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
	m, _, err := BuildModel(s)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := minlp.Solve(m, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ampl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := minlp.Solve(parsed.Model, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != minlp.Optimal {
		t.Fatalf("AMPL-path status %v", res.Status)
	}
	if res.Nodes != direct.Nodes || math.Float64bits(res.Obj) != math.Float64bits(direct.Obj) {
		t.Fatalf("AMPL path %d nodes, obj %v; direct path %d nodes, obj %v",
			res.Nodes, res.Obj, direct.Nodes, direct.Obj)
	}
}

func TestWriteAMPL8thDegGranularity(t *testing.T) {
	s := truthSpec(cesm.Res8thDeg, cesm.Layout1, 8192)
	s.ConstrainOcean = false
	src, err := WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"n_atm_gran", "n_ocn_gran", "4 * n_atm_k"} {
		if !strings.Contains(src, want) {
			t.Errorf("AMPL missing %q", want)
		}
	}
	if _, err := ampl.Parse(src); err != nil {
		t.Fatalf("generated 1/8° AMPL does not parse: %v", err)
	}
}

func TestWriteAMPLLayouts23(t *testing.T) {
	for _, layout := range []cesm.Layout{cesm.Layout2, cesm.Layout3} {
		s := truthSpec(cesm.Res1Deg, layout, 64)
		src, err := WriteAMPL(s)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if _, err := ampl.Parse(src); err != nil {
			t.Fatalf("%v: generated AMPL does not parse: %v", layout, err)
		}
	}
}

func TestWriteAMPLSyncTol(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
	s.SyncTol = 5
	src, err := WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "sync_hi") || !strings.Contains(src, "sync_lo") {
		t.Fatal("sync constraints missing")
	}
	if _, err := ampl.Parse(src); err != nil {
		t.Fatalf("sync AMPL does not parse: %v", err)
	}
}

func TestWriteAMPLRejectsNonMinMax(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
	s.Objective = MinSum
	if _, err := WriteAMPL(s); err == nil {
		t.Fatal("non-min-max objective accepted")
	}
}
