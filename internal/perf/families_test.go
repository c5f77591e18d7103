package perf

import (
	"math"
	"math/rand"
	"testing"
)

func samplesFrom(f func(n float64) float64, ns []int, noise float64, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, len(ns))
	for i, n := range ns {
		v := f(float64(n))
		if noise > 0 {
			v *= 1 + noise*rng.NormFloat64()
		}
		out[i] = Sample{Nodes: n, Time: v}
	}
	return out
}

func TestFitFamilyAmdahlExact(t *testing.T) {
	truth := func(n float64) float64 { return 5000/n + 12 }
	s := samplesFrom(truth, []int{8, 32, 128, 512, 2048}, 0, 1)
	fit, err := FitFamily(s, AmdahlFamily)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(fit.Params[0], 5000, 1e-3) || !approxEq(fit.Params[1], 12, 1e-3) {
		t.Fatalf("params = %v", fit.Params)
	}
	if fit.R2 < 0.99999 {
		t.Fatalf("R² = %v", fit.R2)
	}
}

func TestFitFamilyLogP(t *testing.T) {
	truth := func(n float64) float64 { return 2000/n + 3*math.Log(n) + 5 }
	s := samplesFrom(truth, []int{4, 16, 64, 256, 1024, 4096}, 0, 1)
	fit, err := FitFamily(s, LogPFamily)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{10, 100, 2000} {
		if !approxEq(fit.Predict(n), truth(n), 1e-2) {
			t.Fatalf("predict(%v) = %v, want %v", n, fit.Predict(n), truth(n))
		}
	}
}

func TestSelectFamilyPrefersSimplerOnAmdahlData(t *testing.T) {
	// Pure a/n + d data with mild noise: AICc should not pick a family
	// that predicts worse than Amdahl, and the winner must interpolate
	// within noise.
	truth := func(n float64) float64 { return 27180/n + 45.6 }
	s := samplesFrom(truth, []int{16, 48, 104, 256, 512, 1024, 1664}, 0.01, 7)
	best, err := SelectFamily(s, Families)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{64, 200, 800} {
		rel := math.Abs(best.Predict(n)-truth(n)) / truth(n)
		if rel > 0.05 {
			t.Fatalf("winner %q off by %.1f%% at n=%v", best.Family.Name, rel*100, n)
		}
	}
}

func TestSelectFamilyDetectsLogTerm(t *testing.T) {
	// Strongly log-dominated data: the logp family should win (or at least
	// the winner must track the log growth at large n, which paper/amdahl
	// forms cannot).
	truth := func(n float64) float64 { return 100/n + 20*math.Log(n) + 1 }
	s := samplesFrom(truth, []int{4, 16, 64, 256, 1024, 8192, 32768}, 0.005, 3)
	best, err := SelectFamily(s, Families)
	if err != nil {
		t.Fatal(err)
	}
	want := truth(20000)
	if math.Abs(best.Predict(20000)-want)/want > 0.1 {
		t.Fatalf("winner %q cannot extrapolate log growth: %v vs %v",
			best.Family.Name, best.Predict(20000), want)
	}
}

func TestFitFamilyTooFewSamples(t *testing.T) {
	s := samplesFrom(func(n float64) float64 { return 1 / n }, []int{2, 4, 8}, 0, 1)
	if _, err := FitFamily(s, PaperFamily); err == nil {
		t.Fatal("3 samples accepted for a 4-parameter family")
	}
}

func TestAICcPenalizesParameters(t *testing.T) {
	// Same SSR, more parameters → worse (higher) AICc.
	if aicc(1.0, 10, 2) >= aicc(1.0, 10, 4) {
		t.Fatal("AICc does not penalize parameters")
	}
	// Too few observations → +Inf (disqualified).
	if !math.IsInf(aicc(1.0, 4, 4), 1) {
		t.Fatal("undercorrected AICc should disqualify")
	}
}

func TestSelectFamilyAllFail(t *testing.T) {
	s := samplesFrom(func(n float64) float64 { return 1 / n }, []int{2, 4, 8}, 0, 1)
	bigOnly := []Family{PaperFamily} // needs 4 samples
	if _, err := SelectFamily(s, bigOnly); err == nil {
		t.Fatal("expected failure when every family is unfittable")
	}
}
