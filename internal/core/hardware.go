package core

import (
	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// §IV-C closes with the most speculative HSLB application: "the prediction
// of CESM scaling on new hardware (e.g., exascale supercomputers)". Given
// models fitted on the current machine and a hardware hypothesis — how much
// faster the parallel work runs, how much faster the serial/communication
// parts run — the fitted curves transform term-by-term and the same
// allocation search predicts layouts and totals on the hypothetical machine. The
// paper calls this "exotic and less reliable"; it is a transform of fitted
// coefficients, not a validated hardware model.

// Hardware is a hypothetical machine relative to the one the models were
// fitted on.
type Hardware struct {
	Name string
	// ParallelSpeedup scales the perfectly parallel term a/n (faster
	// cores/vector units).
	ParallelSpeedup float64
	// SerialSpeedup scales the serial floor d (usually improves less —
	// the Amdahl trap).
	SerialSpeedup float64
	// CommSpeedup scales the nonlinear term b·n^c (network/collectives).
	CommSpeedup float64
}

// PortModel transforms one fitted component model onto the hardware.
func PortModel(m perf.Model, hw Hardware) perf.Model {
	par, ser, com := hw.ParallelSpeedup, hw.SerialSpeedup, hw.CommSpeedup
	if par <= 0 {
		par = 1
	}
	if ser <= 0 {
		ser = 1
	}
	if com <= 0 {
		com = 1
	}
	return perf.Model{A: m.A / par, B: m.B / com, C: m.C, D: m.D / ser}
}

// PortSpec transforms every component model in the spec.
func PortSpec(s Spec, hw Hardware) Spec {
	out := s
	out.Perf = map[cesm.Component]perf.Model{}
	for c, m := range s.Perf {
		out.Perf[c] = PortModel(m, hw)
	}
	return out
}

// HardwareForecast is the predicted behaviour on the hypothetical machine.
type HardwareForecast struct {
	Hardware   Hardware
	TotalNodes int
	// Baseline is the optimized total on the fitted (current) machine.
	Baseline float64
	// Ported is the optimized total on the hypothetical machine.
	Ported float64
	// Speedup is Baseline/Ported — bounded by the component speedups and
	// dragged down by whatever does not improve (Amdahl).
	Speedup float64
	Alloc   cesm.Allocation
}

// ForecastHardware optimizes the same allocation problem on both machines.
func ForecastHardware(s Spec, hw Hardware) (*HardwareForecast, error) {
	base, ported, err := searchBoth(s, PortSpec(s, hw))
	if err != nil {
		return nil, err
	}
	f := &HardwareForecast{
		Hardware:   hw,
		TotalNodes: s.TotalNodes,
		Baseline:   base.PredictedTime,
		Ported:     ported.PredictedTime,
		Alloc:      ported.Alloc,
	}
	if ported.PredictedTime > 0 {
		f.Speedup = base.PredictedTime / ported.PredictedTime
	}
	return f, nil
}
