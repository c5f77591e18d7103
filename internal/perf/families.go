package perf

import (
	"errors"
	"math"

	"hslb/internal/nls"
)

// The paper chooses the FMO performance model (Table II) from a family of
// published alternatives ([4], [8], [9]) because it "describes the
// scalability of all CESM components except sea ice well". This file makes
// that choice testable: several candidate functional forms plus
// information-criterion model selection over benchmark data.

// Family is a candidate functional form T(n) = f(p, n).
type Family struct {
	Name      string
	NumParams int
	Eval      func(p []float64, n float64) float64
	// Lower bounds the parameters (positivity, as in Table II line 11).
	Lower []float64
	// Upper bounds the parameters; nil leaves them unbounded above.
	Upper []float64
	// Starts proposes multistart seeds from the data.
	Starts func(xs, ys []float64) [][]float64
}

// FamilyFit is a fitted family with selection diagnostics.
type FamilyFit struct {
	Family Family
	Params []float64
	SSR    float64
	R2     float64
	// AICc is the small-sample corrected Akaike information criterion
	// under a Gaussian residual model; lower is better.
	AICc float64
}

// Predict evaluates the fitted curve.
func (f *FamilyFit) Predict(n float64) float64 { return f.Family.Eval(f.Params, n) }

// PaperFamily is the Table II model a/n + b·n^c + d, bounded as Fit bounds
// it, so it is the model step 2 fits.
var PaperFamily = Family{
	Name:      "paper",
	NumParams: 4,
	Eval: func(p []float64, n float64) float64 {
		return p[0]/n + p[1]*math.Pow(n, p[2]) + p[3]
	},
	Lower: []float64{0, 0, 0, 0},
	Upper: []float64{math.Inf(1), math.Inf(1), maxExponent, math.Inf(1)},
	Starts: func(xs, ys []float64) [][]float64 {
		a := ys[0] * xs[0]
		return [][]float64{
			{a, 1e-6, 1, minOf(ys) / 2},
			{a / 2, 1e-4, 1.2, minOf(ys)},
			{a * 2, 0, 1, 0},
		}
	},
}

// AmdahlFamily is the two-parameter pure Amdahl split a/n + d.
var AmdahlFamily = Family{
	Name:      "amdahl",
	NumParams: 2,
	Eval:      func(p []float64, n float64) float64 { return p[0]/n + p[1] },
	Lower:     []float64{0, 0},
	Starts: func(xs, ys []float64) [][]float64 {
		return [][]float64{{ys[0] * xs[0], minOf(ys) / 2}, {ys[0] * xs[0] / 2, 0}}
	},
}

// LogPFamily models log-cost collectives: a/n + b·log(n) + d.
var LogPFamily = Family{
	Name:      "logp",
	NumParams: 3,
	Eval: func(p []float64, n float64) float64 {
		return p[0]/n + p[1]*math.Log(n) + p[2]
	},
	Lower: []float64{0, 0, 0},
	Starts: func(xs, ys []float64) [][]float64 {
		return [][]float64{{ys[0] * xs[0], 0.1, minOf(ys) / 2}, {ys[0] * xs[0], 0, 0}}
	},
}

// PowerFamily is a·n^(−c) + d, a sublinear-scaling generalization.
var PowerFamily = Family{
	Name:      "power",
	NumParams: 3,
	Eval: func(p []float64, n float64) float64 {
		return p[0]*math.Pow(n, -p[1]) + p[2]
	},
	Lower: []float64{0, 0.05, 0},
	Starts: func(xs, ys []float64) [][]float64 {
		return [][]float64{{ys[0] * xs[0], 1, minOf(ys) / 2}, {ys[0], 0.5, 0}}
	},
}

// Families is the default candidate set.
var Families = []Family{PaperFamily, AmdahlFamily, LogPFamily, PowerFamily}

// ErrFamilyFit reports a family that could not be fitted at all.
var ErrFamilyFit = errors.New("perf: family fit failed")

// FitFamily fits one family by multistart Levenberg–Marquardt.
func FitFamily(samples []Sample, fam Family) (*FamilyFit, error) {
	if len(samples) < fam.NumParams {
		return nil, ErrTooFewSamples
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.Nodes)
		ys[i] = s.Time
	}
	prob := nls.CurveProblem(fam.Eval, xs, ys, fam.NumParams, fam.Lower, fam.Upper)
	res, err := nls.MultiStart(prob, fam.Starts(xs, ys), nls.Options{MaxIter: fitMaxIter})
	if err != nil {
		return nil, err
	}
	preds := make([]float64, len(xs))
	for i, n := range xs {
		preds[i] = fam.Eval(res.Params, n)
	}
	return &FamilyFit{
		Family: fam,
		Params: res.Params,
		SSR:    res.SSR,
		R2:     nls.RSquared(ys, preds),
		AICc:   aicc(res.SSR, len(xs), fam.NumParams),
	}, nil
}

// SelectFamily fits every candidate and returns the lowest-AICc fit. Fits
// that fail are skipped; an error is returned only when none succeed.
func SelectFamily(samples []Sample, fams []Family) (*FamilyFit, error) {
	var best *FamilyFit
	var firstErr error
	for _, fam := range fams {
		fit, err := FitFamily(samples, fam)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || fit.AICc < best.AICc {
			best = fit
		}
	}
	if best == nil {
		if firstErr == nil {
			firstErr = ErrFamilyFit
		}
		return nil, firstErr
	}
	return best, nil
}

// aicc is the corrected Akaike criterion for least squares with k
// parameters (+1 for the noise variance) over m observations.
func aicc(ssr float64, m, k int) float64 {
	if ssr <= 0 {
		ssr = 1e-300 // perfect fit: drive the criterion to -inf-ish finitely
	}
	kk := float64(k + 1)
	mm := float64(m)
	aic := mm*math.Log(ssr/mm) + 2*kk
	denom := mm - kk - 1
	if denom <= 0 {
		return math.Inf(1) // not enough data to correct; disqualify
	}
	return aic + 2*kk*(kk+1)/denom
}

func minOf(ys []float64) float64 {
	m := math.Inf(1)
	for _, y := range ys {
		m = math.Min(m, y)
	}
	return m
}
