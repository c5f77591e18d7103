// Package core implements HSLB — the Heuristic Static Load-Balancing
// algorithm of the paper — for CESM: it builds the Table I mixed-integer
// nonlinear allocation models for the three component layouts of Figure 1,
// solves them with the branch-and-bound solvers in internal/minlp, and
// orchestrates the full four-step pipeline (gather → fit → solve → execute,
// §III-F).
package core

import (
	"fmt"

	"hslb/internal/cesm"
	"hslb/internal/minlp"
	"hslb/internal/perf"
)

// Objective selects the decision-making objective (§III-D).
type Objective int

// Objectives.
const (
	// MinMax minimizes the maximum (layout-composed) time — the paper's
	// choice, eq. (1).
	MinMax Objective = iota
	// MaxMin maximizes the minimum per-component time, eq. (2). Its
	// constraint set is nonconvex, so SolveAllocation answers it exactly
	// by ExhaustiveSearch rather than by outer approximation.
	MaxMin
	// MinSum minimizes the sum of component times, eq. (3) — included for
	// the ablation; the paper rules it out because CESM's layouts need the
	// max-structure, and prior FMO work found it much worse.
	MinSum
)

func (o Objective) String() string {
	switch o {
	case MinMax:
		return "min-max"
	case MaxMin:
		return "max-min"
	case MinSum:
		return "min-sum"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Spec describes one allocation problem instance.
type Spec struct {
	Resolution cesm.Resolution
	Layout     cesm.Layout
	// TotalNodes is N, the node budget (Table I line 4).
	TotalNodes int
	// Perf holds the fitted performance model per optimized component
	// (HSLB step 2 output).
	Perf map[cesm.Component]perf.Model
	// Objective defaults to MinMax.
	Objective Objective
	// SyncTol > 0 enables the land/ice synchronization-tolerance
	// constraints (Table I lines 9, 18–19): |T_lnd − T_ice| ≤ SyncTol.
	// The paper notes the extra synchronization constraint may reduce
	// the achievable performance; it is off by default.
	SyncTol float64
	// ConstrainOcean restricts the ocean allocation to its hard-coded
	// allowed set (Table I line 5). Turning it off reproduces the paper's
	// "unconstrained ocean nodes" experiments (§IV-B), which keep only a
	// decomposition-granularity (multiple-of-4) requirement at 1/8°.
	ConstrainOcean bool
	// ConstrainAtm restricts the 1° atmosphere allocation to the sweet-spot
	// set A (Table I line 6). At 1/8° the atmosphere always carries a
	// multiple-of-4 decomposability constraint instead.
	ConstrainAtm bool
}

// Validate checks the spec for obvious inconsistencies.
func (s Spec) Validate() error {
	if s.TotalNodes < 4 {
		return fmt.Errorf("core: total nodes %d too small for a coupled run", s.TotalNodes)
	}
	for _, c := range cesm.OptimizedComponents {
		m, ok := s.Perf[c]
		if !ok {
			return fmt.Errorf("core: missing performance model for %v", c)
		}
		if m.A < 0 || m.B < 0 || m.D < 0 {
			return fmt.Errorf("core: %v model violates positivity (Table II line 11): %+v", c, m)
		}
	}
	if s.SyncTol < 0 {
		return fmt.Errorf("core: negative SyncTol %g", s.SyncTol)
	}
	return nil
}

// Vars records where the model's decision variables live.
type Vars struct {
	T       int // total-time variable index (MinMax), -1 otherwise
	Ticelnd int // layout-1 intermediate (Table I line 8), -1 otherwise
	N       map[cesm.Component]int
}

// Decision is the solved allocation with its predictions (HSLB step 3
// output, the "Predicted" columns of Table III).
type Decision struct {
	Alloc         cesm.Allocation
	PredictedComp map[cesm.Component]float64
	PredictedTime float64
	// Status is the solver's exit status: Optimal for a certified optimum,
	// Deadline when a solve timeout fired and the allocation is the best
	// incumbent found (good but uncertified). ExhaustiveSearch is exact, so
	// its decisions report Optimal.
	Status minlp.Status
	// Solver diagnostics.
	Nodes     int
	NLPSolves int
	Cuts      int
}
