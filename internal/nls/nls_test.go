package nls

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	return d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// perfFunc is the Table II model T(n) = a/n + b·n^c + d over p = [a,b,c,d].
func perfFunc(p []float64, n float64) float64 {
	return p[0]/n + p[1]*math.Pow(n, p[2]) + p[3]
}

func TestFitLine(t *testing.T) {
	// y = 2x + 1 exactly.
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	prob := CurveProblem(func(p []float64, x float64) float64 { return p[0]*x + p[1] }, xs, ys, 2, nil, nil)
	res, err := Solve(prob, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Params[0], 2, 1e-6) || !approxEq(res.Params[1], 1, 1e-6) {
		t.Fatalf("params = %v, want (2,1)", res.Params)
	}
	if res.SSR > 1e-12 {
		t.Fatalf("SSR = %g", res.SSR)
	}
}

func TestFitExponentialDecay(t *testing.T) {
	// y = 5·exp(-0.7 x).
	xs := []float64{0, 0.5, 1, 1.5, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * math.Exp(-0.7*x)
	}
	prob := CurveProblem(func(p []float64, x float64) float64 {
		return p[0] * math.Exp(-p[1]*x)
	}, xs, ys, 2, nil, nil)
	res, err := Solve(prob, []float64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Params[0], 5, 1e-5) || !approxEq(res.Params[1], 0.7, 1e-5) {
		t.Fatalf("params = %v, want (5,0.7)", res.Params)
	}
}

func TestFitPerformanceModelExact(t *testing.T) {
	// Paper's 1° atmosphere-like coefficients: a=27180, b≈0, c=1, d=45.6.
	truth := []float64{27180, 1e-4, 1.0, 45.6}
	ns := []float64{32, 64, 104, 256, 512, 1024, 1664}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = perfFunc(truth, n)
	}
	lower := []float64{0, 0, 0, 0}
	prob := CurveProblem(perfFunc, ns, ys, 4, lower, nil)
	starts := [][]float64{
		{1000, 0.001, 1, 10},
		{50000, 0.01, 0.5, 100},
		{10000, 1e-5, 1.5, 1},
	}
	res, err := MultiStart(prob, starts, Options{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	// The parameters themselves may differ between local optima (paper
	// §III-C observes this); what must hold is prediction quality.
	for i, n := range ns {
		pred := perfFunc(res.Params, n)
		if !approxEq(pred, ys[i], 1e-2) {
			t.Fatalf("prediction at n=%v: %v, want %v (params %v)", n, pred, ys[i], res.Params)
		}
	}
	preds := make([]float64, len(ns))
	for i, n := range ns {
		preds[i] = perfFunc(res.Params, n)
	}
	if r2 := RSquared(ys, preds); r2 < 0.9999 {
		t.Fatalf("R² = %v, want ≈1", r2)
	}
}

func TestBoundsRespected(t *testing.T) {
	// Fit y = -3x with params constrained nonnegative: best is p=0.
	xs := []float64{1, 2, 3}
	ys := []float64{-3, -6, -9}
	prob := CurveProblem(func(p []float64, x float64) float64 { return p[0] * x }, xs, ys, 1, []float64{0}, nil)
	res, err := Solve(prob, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params[0] < 0 {
		t.Fatalf("bound violated: %v", res.Params)
	}
	if !approxEq(res.Params[0], 0, 1e-6) {
		t.Fatalf("params = %v, want 0 at bound", res.Params)
	}
}

func TestNoisyFitRecoversApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := []float64{7700, 0.001, 1, 11.8}
	ns := []float64{16, 32, 80, 160, 320, 640, 1280}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = perfFunc(truth, n) * (1 + 0.02*rng.NormFloat64())
	}
	prob := CurveProblem(perfFunc, ns, ys, 4, []float64{0, 0, 0, 0}, nil)
	res, err := MultiStart(prob, [][]float64{{1000, 0.001, 1, 1}, {10000, 0.01, 1.2, 50}}, Options{MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(ns))
	for i, n := range ns {
		preds[i] = perfFunc(res.Params, n)
	}
	if r2 := RSquared(ys, preds); r2 < 0.99 {
		t.Fatalf("R² = %v on 2%% noise", r2)
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if r2 := RSquared(obs, obs); !approxEq(r2, 1, 1e-12) {
		t.Errorf("perfect fit R² = %v", r2)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r2 := RSquared(obs, mean); !approxEq(r2, 0, 1e-12) {
		t.Errorf("mean fit R² = %v", r2)
	}
	if !math.IsNaN(RSquared(obs, obs[:2])) {
		t.Error("length mismatch should give NaN")
	}
	if r2 := RSquared([]float64{3, 3}, []float64{3, 3}); r2 != 1 {
		t.Errorf("constant data perfect fit R² = %v", r2)
	}
}

func TestMultiStartPicksBest(t *testing.T) {
	// A deliberately multimodal 1-parameter fit: y = sin(p·x) data with
	// p=2; a far start converges to a worse local optimum.
	xs := []float64{0.1, 0.4, 0.7, 1.1, 1.6, 2.2}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(2 * x)
	}
	prob := CurveProblem(func(p []float64, x float64) float64 { return math.Sin(p[0] * x) }, xs, ys, 1, nil, nil)
	good, err := MultiStart(prob, [][]float64{{30}, {1.5}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(good.Params[0], 2, 1e-4) {
		t.Fatalf("multistart params = %v, want 2", good.Params)
	}
}

func TestBadProblems(t *testing.T) {
	if _, err := Solve(&Problem{}, nil, Options{}); err == nil {
		t.Error("empty problem accepted")
	}
	prob := CurveProblem(func(p []float64, x float64) float64 { return p[0] }, []float64{1}, []float64{1}, 1, nil, nil)
	if _, err := Solve(prob, []float64{1, 2}, Options{}); err == nil {
		t.Error("wrong p0 length accepted")
	}
	if _, err := MultiStart(prob, nil, Options{}); err == nil {
		t.Error("no starts accepted")
	}
}

func TestFitQuadraticProperty(t *testing.T) {
	// Property: LM recovers exact quadratic data from any sane start.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.NormFloat64() * 2
		b := rng.NormFloat64() * 2
		c := rng.NormFloat64() * 2
		xs := []float64{-2, -1, 0, 1, 2, 3}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x*x + b*x + c
		}
		prob := CurveProblem(func(p []float64, x float64) float64 {
			return p[0]*x*x + p[1]*x + p[2]
		}, xs, ys, 3, nil, nil)
		start := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		res, err := Solve(prob, start, Options{MaxIter: 300})
		if err != nil {
			return false
		}
		return res.SSR < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveAllocationsIndependentOfIterations guards the workspace: on the
// Table II problem a Solve allocates its buffers once, so one that runs
// hundreds of iterations allocates exactly as often as one that stops
// after the first.
func TestSolveAllocationsIndependentOfIterations(t *testing.T) {
	truth := []float64{7700, 0.001, 1.1, 11.8}
	ns := []float64{16, 32, 80, 160, 320, 640, 1280}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = perfFunc(truth, n) * (1 + 0.01*math.Sin(n))
	}
	lower := []float64{0, 0, 1, 0}
	upper := []float64{math.Inf(1), math.Inf(1), 3, math.Inf(1)}
	prob := CurveProblem(perfFunc, ns, ys, 4, lower, upper)
	start := []float64{1000, 1e-6, 1, 1}
	allocs := func(maxIter int) (float64, int) {
		var iters int
		a := testing.AllocsPerRun(20, func() {
			res, err := Solve(prob, start, Options{MaxIter: maxIter})
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		})
		return a, iters
	}
	short, shortIters := allocs(1)
	long, longIters := allocs(400)
	if longIters < 20*shortIters {
		t.Fatalf("iterations %d vs %d: the long solve must run many more", longIters, shortIters)
	}
	t.Logf("%v allocations per Solve over %d iterations, %v over %d", long, longIters, short, shortIters)
	if long != short || long > 8 {
		t.Fatalf("Solve allocated %v times over %d iterations and %v over %d, want the same handful",
			long, longIters, short, shortIters)
	}
}
