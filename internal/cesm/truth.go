package cesm

import (
	"hash/fnv"
	"math"

	"hslb/internal/perf"
)

// truth describes the machine ground truth for one component at one
// resolution: the underlying smooth performance function plus the relative
// noise level of a single 5-day benchmark run.
type truth struct {
	model perf.Model
	noise float64 // relative standard deviation of run-to-run variation
}

// groundTruth is calibrated from the paper's Table III manual-allocation
// rows: with these coefficients the layout-1 composition rule reproduces the
// published totals (416.0 s at 1°/128, 79.9 s at 1°/2048, 3785 s at
// 1/8°/8192, 1645 s at 1/8°/32768) to within the stated noise.
var groundTruth = map[Resolution]map[Component]truth{
	Res1Deg: {
		ATM: {model: perf.Model{A: 27180, B: 2e-4, C: 1.05, D: 44.9}, noise: 0.006},
		OCN: {model: perf.Model{A: 7697, B: 1e-4, C: 1.05, D: 41.5}, noise: 0.006},
		ICE: {model: perf.Model{A: 7780, B: 1e-4, C: 1.05, D: 11.4}, noise: 0.05},
		LND: {model: perf.Model{A: 1484, B: 5e-5, C: 1.05, D: 1.85}, noise: 0.008},
		// River and coupler cost little (excluded from HSLB models, §II).
		RTM: {model: perf.Model{A: 120, B: 0, C: 1, D: 0.8}, noise: 0.01},
		CPL: {model: perf.Model{A: 300, B: 1e-4, C: 1, D: 1.5}, noise: 0.01},
	},
	Res8thDeg: {
		ATM: {model: perf.Model{A: 1.30489e7, B: 1e-3, C: 1.02, D: 260}, noise: 0.008},
		OCN: {model: perf.Model{A: 8.1956e6, B: 1e-3, C: 1.02, D: 292}, noise: 0.01},
		ICE: {model: perf.Model{A: 1.79082e6, B: 5e-4, C: 1.02, D: 125}, noise: 0.06},
		LND: {model: perf.Model{A: 64195, B: 2e-4, C: 1.02, D: 14.1}, noise: 0.01},
		RTM: {model: perf.Model{A: 9000, B: 0, C: 1, D: 4}, noise: 0.01},
		CPL: {model: perf.Model{A: 22000, B: 5e-4, C: 1, D: 8}, noise: 0.01},
	},
}

// TruthModel exposes the underlying smooth performance function for a
// component. Experiment harnesses use it to draw "true" scaling curves
// (Figure 2) next to fitted ones; HSLB itself never reads it.
func TruthModel(res Resolution, c Component) perf.Model {
	return groundTruth[res][c].model
}

// hashFrac maps arbitrary integers deterministically to [0,1), used to give
// every (component, nodes, seed, ...) combination a reproducible noise draw.
func hashFrac(parts ...int64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		v := uint64(p)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// gauss maps two uniform hash draws to a standard normal via Box–Muller.
func gauss(u1, u2 float64) float64 {
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// noiseFactor returns the multiplicative noise for one benchmark run.
func noiseFactor(res Resolution, c Component, nodes int, seed int64, rel float64) float64 {
	u1 := hashFrac(int64(res), int64(c), int64(nodes), seed, 1)
	u2 := hashFrac(int64(res), int64(c), int64(nodes), seed, 2)
	f := 1 + rel*gauss(u1, u2)
	if f < 0.5 {
		f = 0.5
	}
	return f
}
