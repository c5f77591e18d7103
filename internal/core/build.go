package core

import (
	"fmt"
	"math"

	"hslb/internal/cesm"
	"hslb/internal/expr"
	"hslb/internal/model"
)

// BuildModel constructs the Table I MINLP for the spec. The returned Vars
// locates the decision variables inside the model.
func BuildModel(s Spec) (*model.Model, *Vars, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	N := float64(s.TotalNodes)
	m := model.New()
	vars := &Vars{T: -1, Ticelnd: -1, S: -1, N: map[cesm.Component]int{}}

	// A safe finite upper bound for time variables: everything on one node.
	timeUB := 0.0
	for _, c := range cesm.OptimizedComponents {
		timeUB += s.Perf[c].Eval(1)
	}
	timeUB = timeUB*2 + 1000

	// Node-count variables with per-component caps.
	capAtm := minInt(s.TotalNodes, cesm.AtmMaxNodes(s.Resolution))
	capOcn := minInt(s.TotalNodes, cesm.OceanMaxNodes(s.Resolution))
	nv := map[cesm.Component]expr.Var{}
	for _, c := range cesm.OptimizedComponents {
		upper := s.TotalNodes
		switch c {
		case cesm.ATM:
			upper = capAtm
		case cesm.OCN:
			upper = capOcn
		}
		v := m.AddVar("n_"+c.String(), model.Integer, 1, float64(upper))
		nv[c] = v
		vars.N[c] = v.Index
	}

	// Component time expressions T_j(n_j) from the fitted models.
	tExpr := map[cesm.Component]expr.Expr{}
	for _, c := range cesm.OptimizedComponents {
		tExpr[c] = s.Perf[c].Expr(nv[c])
	}

	// Objective scaffolding.
	switch s.Objective {
	case MinMax:
		T := m.AddVar("T", model.Continuous, 0, timeUB)
		vars.T = T.Index
		addTemporal(m, s, vars, nv, tExpr, T)
		m.SetObjective(T, model.Minimize)
	case MinSum:
		sum := make([]expr.Expr, 0, 4)
		for _, c := range cesm.OptimizedComponents {
			sum = append(sum, tExpr[c])
		}
		m.SetObjective(expr.Sum(sum...), model.Minimize)
	case MaxMin:
		S := m.AddVar("S", model.Continuous, 0, timeUB)
		vars.S = S.Index
		for _, c := range cesm.OptimizedComponents {
			// S <= T_j(n_j)  ⇔  S − T_j ≤ 0 (nonconvex; NLPBB territory).
			m.AddConstraint("smin_"+c.String(), expr.Sub(S, tExpr[c]), model.LE, 0)
		}
		m.SetObjective(S, model.Maximize)
	default:
		return nil, nil, fmt.Errorf("core: unknown objective %v", s.Objective)
	}

	// Node constraints (Table I lines 20-21, 24-26, 28). Under the MaxMin
	// objective the inequality form is degenerate — maximizing the minimum
	// time of decreasing curves just starves every component — so the
	// capacity constraints become equalities: the budget must be exhausted
	// for max-min balancing to mean anything.
	capSense := model.LE
	if s.Objective == MaxMin {
		capSense = model.EQ
	}
	switch s.Layout {
	case cesm.Layout1:
		m.AddConstraint("cap_atm_ocn", expr.Sum(nv[cesm.ATM], nv[cesm.OCN]), capSense, N)
		m.AddConstraint("share_icelnd", expr.Sub(expr.Sum(nv[cesm.ICE], nv[cesm.LND]), nv[cesm.ATM]), capSense, 0)
	case cesm.Layout2:
		for _, c := range []cesm.Component{cesm.ATM, cesm.ICE, cesm.LND} {
			m.AddConstraint("cap_"+c.String(), expr.Sum(nv[c], nv[cesm.OCN]), model.LE, N)
		}
	case cesm.Layout3:
		// Per-component n_j <= N already enforced by variable bounds.
	default:
		return nil, nil, fmt.Errorf("core: unknown layout %v", s.Layout)
	}

	// Synchronization tolerance (Table I lines 18-19), optional.
	if s.SyncTol > 0 && s.Layout == cesm.Layout1 {
		diff := expr.Sub(tExpr[cesm.LND], tExpr[cesm.ICE])
		m.AddConstraint("sync_hi", diff, model.LE, s.SyncTol)
		m.AddConstraint("sync_lo", expr.Neg{Arg: diff}, model.LE, s.SyncTol)
	}

	// Discrete allowed sets (Table I lines 5-6, 29-31).
	if err := addAllowedSets(m, s, nv, capAtm, capOcn); err != nil {
		return nil, nil, err
	}

	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: built an invalid model: %w", err)
	}
	return m, vars, nil
}

// addTemporal encodes the layout's sequencing rules (Table I lines 13-17,
// 22-23, 27) for the MinMax objective.
func addTemporal(m *model.Model, s Spec, vars *Vars, nv map[cesm.Component]expr.Var, tExpr map[cesm.Component]expr.Expr, T expr.Var) {
	switch s.Layout {
	case cesm.Layout1:
		Ticelnd := m.AddVar("T_icelnd", model.Continuous, 0, math.Inf(1))
		vars.Ticelnd = Ticelnd.Index
		m.AddConstraint("icelnd_ge_ice", expr.Sub(tExpr[cesm.ICE], Ticelnd), model.LE, 0)
		m.AddConstraint("icelnd_ge_lnd", expr.Sub(tExpr[cesm.LND], Ticelnd), model.LE, 0)
		m.AddConstraint("T_ge_seq", expr.Sub(expr.Sum(Ticelnd, tExpr[cesm.ATM]), T), model.LE, 0)
		m.AddConstraint("T_ge_ocn", expr.Sub(tExpr[cesm.OCN], T), model.LE, 0)
	case cesm.Layout2:
		m.AddConstraint("T_ge_seq", expr.Sub(expr.Sum(tExpr[cesm.ICE], tExpr[cesm.LND], tExpr[cesm.ATM]), T), model.LE, 0)
		m.AddConstraint("T_ge_ocn", expr.Sub(tExpr[cesm.OCN], T), model.LE, 0)
	case cesm.Layout3:
		m.AddConstraint("T_ge_all", expr.Sub(expr.Sum(
			tExpr[cesm.ICE], tExpr[cesm.LND], tExpr[cesm.ATM], tExpr[cesm.OCN]), T), model.LE, 0)
	}
}

// addAllowedSets attaches the ocean/atmosphere discrete-choice structure.
func addAllowedSets(m *model.Model, s Spec, nv map[cesm.Component]expr.Var, capAtm, capOcn int) error {
	// Ocean.
	if s.ConstrainOcean {
		vals := floats(candidateCounts(s, cesm.OCN, capOcn))
		if len(vals) == 0 {
			return fmt.Errorf("core: no allowed ocean count fits in %d nodes", capOcn)
		}
		m.AddSelectionSet("ocnset", nv[cesm.OCN], vals)
	} else if s.Resolution == cesm.Res8thDeg {
		addMultipleOf(m, nv[cesm.OCN], cesm.OceanNodeMultiple, capOcn)
	}
	// Atmosphere.
	if s.Resolution == cesm.Res1Deg {
		if s.ConstrainAtm {
			vals := floats(candidateCounts(s, cesm.ATM, capAtm))
			if len(vals) == 0 {
				return fmt.Errorf("core: no allowed atmosphere count fits in %d nodes", capAtm)
			}
			m.AddSelectionSet("atmset", nv[cesm.ATM], vals)
		}
	} else {
		addMultipleOf(m, nv[cesm.ATM], cesm.AtmNodeMultiple, capAtm)
	}
	return nil
}

// addMultipleOf constrains v to positive multiples of mult via an auxiliary
// integer: v = mult·k.
func addMultipleOf(m *model.Model, v expr.Var, mult, upper int) {
	if mult <= 1 {
		return
	}
	k := m.AddVar(v.Name+"_mult", model.Integer, 1, math.Max(1, float64(upper/mult)))
	m.AddConstraint(v.Name+"_gran",
		expr.Sub(v, expr.Scale(float64(mult), k)), model.EQ, 0)
}

func floats(ns []int) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
