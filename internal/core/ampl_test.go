package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"hslb/internal/ampl"
	"hslb/internal/cesm"
	"hslb/internal/minlp"
	"hslb/internal/perf"
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

// TestWriteAMPLWritesEveryObjective: the one Table I writer renders the
// min-sum and max-min objectives too, and their text parses.
func TestWriteAMPLWritesEveryObjective(t *testing.T) {
	for obj, want := range map[Objective]string{MinSum: "minimize total_time: ", MaxMin: "maximize min_time: S;"} {
		s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
		s.Objective = obj
		src, err := WriteAMPL(s)
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if !strings.Contains(src, want) {
			t.Errorf("%v: AMPL missing %q", obj, want)
		}
		if _, err := ampl.Parse(src); err != nil {
			t.Fatalf("%v: generated AMPL does not parse: %v", obj, err)
		}
	}
}

// TestWriteAMPLMinMaxTextPinned holds the min-max text of the benchmark's
// 12 rung shapes (1° 128 constrained, 1° 128-2048 and 1/8° 8192-32768
// free, 1/8° 8192-32768 constrained) to SHA-256 digests recorded before
// the min-max-only writer and the all-objective one became one function,
// so request keys and campaign model digests stay where they were.
func TestWriteAMPLMinMaxTextPinned(t *testing.T) {
	for _, tc := range []struct {
		res         cesm.Resolution
		nodes       int
		constrained bool
		digest      string
	}{
		{cesm.Res1Deg, 128, true, "ffe71fbb3a506d715e23a14f098e06f076e39a35f4bdcb75c1a81e9710a4a107"},
		{cesm.Res1Deg, 128, false, "6a535d0f273bf8032c7fddd468631e1c7cfa1c00854a622db9dec23ac4d0e450"},
		{cesm.Res1Deg, 256, false, "152e82650e6516e78511be87ce86e8152a0c2fd6c62b9faf7ebee91fb4f8f984"},
		{cesm.Res1Deg, 512, false, "3642ac3e33dbd6924d8001b32d0357c220f8589f82b3f2440b3579a0dc9320a4"},
		{cesm.Res1Deg, 1024, false, "7686e4c84b23710a1c043eeacfb61948896fce2dad0242d45e6a0506e473eb97"},
		{cesm.Res1Deg, 2048, false, "c1345d1cb1d0e24b3783d8cbb8a2c1b1f8b9414f3e5bb4584136c78072da791c"},
		{cesm.Res8thDeg, 8192, true, "0a4c7f173eae1a6f4d4c12c6c8d41bf61a2a4929491eb1d48869a79f16b9516b"},
		{cesm.Res8thDeg, 8192, false, "2cc3e6cfc3999f209ab1a07265c51b5daf5312b6d0cafb17e134c68c8d9da7aa"},
		{cesm.Res8thDeg, 16384, true, "70040202923acfe3d344230c076933cb416a1bb15a3de6845abff2740482d0cf"},
		{cesm.Res8thDeg, 16384, false, "5de3ba917b28524aa0c72ae2c289348a9103bd91fdf9c5a63993dda1d0c90fc9"},
		{cesm.Res8thDeg, 32768, true, "fafec14bae1905af4faa131f0d7f3f737d4ae7637ed9cc8d26ff6a5af003e9fe"},
		{cesm.Res8thDeg, 32768, false, "95f83242791e6c98710b20c932cee3d25d2b13c648211c2d5d50412e501c5baf"},
	} {
		fits := knownFits[1]
		if tc.res == cesm.Res8thDeg {
			fits = knownFits8th[1]
		}
		s := Spec{Resolution: tc.res, Layout: cesm.Layout1, TotalNodes: tc.nodes, Perf: fits,
			ConstrainOcean: tc.constrained, ConstrainAtm: tc.constrained && tc.res == cesm.Res1Deg}
		src, err := WriteAMPL(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(src))); got != tc.digest {
			t.Errorf("%v %d constrained=%t: text digest %s, want %s", tc.res, tc.nodes, tc.constrained, got, tc.digest)
		}
	}
}

// TestReadSpecRecoversEveryShape parses WriteAMPL's text for every shape
// it writes (three objectives, layouts 1-3, both resolutions, sets on and
// off, SyncTol on and off, on fitted curves with B = 0 and on U-shaped
// ones) and reads the spec back. Min-max layout 1 and max-min shapes
// recover their spec bit for bit, up to what the text does not carry: C
// where B is 0, the atmosphere set at 1/8°, SyncTol off layout 1. Min-max
// layouts 2-3 and min-sum recover nothing, since their rows fold several
// curves' constants into one.
func TestReadSpecRecoversEveryShape(t *testing.T) {
	fits := map[cesm.Resolution]map[string]map[cesm.Component]perf.Model{
		cesm.Res1Deg:   {"fit": knownFits[1], "u": uShapedSpec(cesm.Res1Deg, cesm.Layout1, 128).Perf},
		cesm.Res8thDeg: {"fit": knownFits8th[1], "u": uShapedSpec(cesm.Res8thDeg, cesm.Layout1, 8192).Perf},
	}
	nodes := map[cesm.Resolution]int{cesm.Res1Deg: 128, cesm.Res8thDeg: 8192}
	for _, obj := range []Objective{MinMax, MaxMin, MinSum} {
		for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2, cesm.Layout3} {
			for _, res := range []cesm.Resolution{cesm.Res1Deg, cesm.Res8thDeg} {
				for curves, perfs := range fits[res] {
					for _, sets := range []bool{false, true} {
						for _, tol := range []float64{0, 2} {
							s := Spec{Resolution: res, Layout: layout, TotalNodes: nodes[res], Perf: perfs,
								Objective: obj, SyncTol: tol, ConstrainOcean: sets, ConstrainAtm: sets}
							name := fmt.Sprintf("%v/layout%d/%v/%s/sets=%t/sync=%g", obj, int(layout)+1, res, curves, sets, tol)
							src, err := WriteAMPL(s)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							parsed, err := ampl.Parse(src)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got, ok := readSpec(parsed)
							if want := obj == MaxMin || (obj == MinMax && layout == cesm.Layout1); ok != want {
								t.Fatalf("%s: recovered %t, want %t", name, ok, want)
							}
							if !ok {
								continue
							}
							want := s
							want.Perf = map[cesm.Component]perf.Model{}
							for c, m := range s.Perf {
								if m.B == 0 {
									m.C = 0
								}
								want.Perf[c] = m
							}
							want.ConstrainAtm = sets && res == cesm.Res1Deg
							if layout != cesm.Layout1 {
								want.SyncTol = 0
							}
							if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
								t.Fatalf("%s: read back\n%s\nwant\n%s", name, g, w)
							}
						}
					}
				}
			}
		}
	}
	// Past a million nodes a model reads back nothing and stays with OA.
	s := truthSpec(cesm.Res1Deg, cesm.Layout3, 1<<20+1)
	s.Objective, s.ConstrainOcean, s.ConstrainAtm = MaxMin, false, false
	src, err := WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ampl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := readSpec(parsed); ok {
		t.Fatal("a model over a million nodes read back a spec")
	}
}

// TestEditedTableIModelGoesToOA: a sync model whose sync_lo bound was
// edited reads back a spec (sync_hi is unchanged) whose WriteAMPL text is
// not the model, so SolveModel hands the model to OA as it stands.
func TestEditedTableIModelGoesToOA(t *testing.T) {
	s := Spec{Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128, Perf: knownFits[1],
		SyncTol: 2, ConstrainOcean: true, ConstrainAtm: true}
	src, err := WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(src, "subject to sync_lo:")
	j := i + strings.Index(src[i:], "<= 2;")
	edited := src[:j] + "<= 3;" + src[j+len("<= 2;"):]
	parsed, err := ampl.Parse(edited)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := readSpec(parsed); !ok || got.SyncTol != 2 {
		t.Fatalf("edited model read back %v (sync %g), want the spec with sync 2", ok, got.SyncTol)
	}
	got, err := SolveModel(context.Background(), parsed, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	oa, err := minlp.Solve(parsed.Model, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != oa.Status || got.Nodes != oa.Nodes || math.Float64bits(got.Obj) != math.Float64bits(oa.Obj) {
		t.Fatalf("SolveModel: %v after %d nodes, obj %v; OA: %v after %d nodes, obj %v",
			got.Status, got.Nodes, got.Obj, oa.Status, oa.Nodes, oa.Obj)
	}
}
