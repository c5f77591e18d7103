package core

import (
	"context"
	"fmt"
	"math"

	"hslb/internal/ampl"
	"hslb/internal/cesm"
	"hslb/internal/expr"
	"hslb/internal/minlp"
	"hslb/internal/model"
	"hslb/internal/perf"
)

// SolverOptions wraps the MINLP options with HSLB defaults: the LP/NLP
// branch-and-bound with SOS branching, the setup §III-E reports as two
// orders of magnitude faster than branching on individual binaries.
func SolverOptions() minlp.Options {
	return minlp.Options{
		BranchSOS: true,
		// A 0.01% relative gap: total times are hundreds to thousands of
		// seconds, so sub-millisecond allocation differences are noise and
		// resolving them would blow up the tree on large machines.
		RelGap: 1e-4,
	}
}

// SolveAllocation builds and solves the Table I model for the spec (HSLB
// step 3) and returns the optimal allocation with predicted times.
func SolveAllocation(s Spec, opt minlp.Options) (*Decision, error) {
	return SolveAllocationContext(context.Background(), s, opt)
}

// SolveAllocationContext is SolveAllocation under a context deadline. A
// solve that times out but carries a feasible incumbent is returned as a
// Decision with Status minlp.Deadline rather than an error; a timeout with
// no incumbent at all is an error. Nonconvex specs go to ExhaustiveSearch,
// which ctx bounds too: having no incumbent, it answers a timeout with the
// context's error.
func SolveAllocationContext(ctx context.Context, s Spec, opt minlp.Options) (*Decision, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if exactRoute(s) {
		return exhaustiveSearch(ctx, s)
	}
	m, vars, err := BuildModel(s)
	if err != nil {
		return nil, err
	}
	res, err := minlp.SolveContext(ctx, m, opt)
	if err != nil {
		return nil, err
	}
	acceptable := res.Status == minlp.Optimal ||
		(res.Status == minlp.Deadline && res.X != nil)
	if !acceptable {
		return nil, fmt.Errorf("core: MINLP solve ended with status %v after %d nodes", res.Status, res.Nodes)
	}
	var alloc cesm.Allocation
	for _, c := range cesm.OptimizedComponents {
		alloc.Set(c, int(math.Round(res.X[vars.N[c]])))
	}
	total, comp := PredictTotal(s, alloc)
	return &Decision{Alloc: alloc, PredictedComp: comp, PredictedTime: total,
		Status: res.Status, Nodes: res.Nodes, NLPSolves: res.NLPSolves, Cuts: res.Cuts}, nil
}

// exactRoute reports whether the spec's Table I model is nonconvex, so an
// OA cut can cut off its optimum: the max-min rows (eq. 2) and layout 1's
// sync rows (Table I lines 18-19), each a difference of convex curves.
func exactRoute(s Spec) bool {
	return s.Objective == MaxMin || (s.Layout == cesm.Layout1 && s.SyncTol > 0)
}

// SolveModel answers a parsed AMPL model with the decision SolveAllocation
// makes for a spec, so the served door and the library route alike. It
// reads back the spec the model could be written from (readSpec); when
// exactRoute sends that spec to the exact search and WriteAMPL of it has
// the model's canonical form, ExhaustiveSearch answers, and one OA solve
// of the model with every node count fixed at the exact allocation names
// the model's variables. Every other model goes to OA as it stands. An
// exact search that ctx cuts short answers Deadline with no point.
func SolveModel(ctx context.Context, parsed *ampl.Result, opt minlp.Options) (*minlp.Result, error) {
	s, ok := readSpec(parsed)
	if !ok || !exactRoute(s) || !writes(s, parsed) {
		return minlp.SolveContext(ctx, parsed.Model, opt)
	}
	dec, err := exhaustiveSearch(ctx, s)
	if err != nil {
		// The round trip makes s the model's spec, so an exact search that
		// ctx did not cut short failed because the model is infeasible.
		status := minlp.Infeasible
		if ctx.Err() != nil {
			status = minlp.Deadline
		}
		return &minlp.Result{Status: status}, nil
	}
	fixed := parsed.Model.Clone()
	for _, c := range cesm.OptimizedComponents {
		fixed.FixVar(parsed.VarIndex["n_"+c.String()], float64(dec.Alloc.Get(c)))
	}
	return minlp.SolveContext(ctx, fixed, opt)
}

// writes reports whether WriteAMPL(s) has the parsed model's canonical form.
func writes(s Spec, parsed *ampl.Result) bool {
	src, err := WriteAMPL(s)
	if err != nil {
		return false
	}
	canon, err := ampl.Canonical(src)
	return err == nil && canon == parsed.CanonicalForm()
}

// readSpec reads back the Spec whose WriteAMPL text the parse may be, from
// Table I's names: N, the 1/8° atmosphere granularity, the selection sets,
// the layout and objective, sync_hi's bound, and each curve from the row
// that holds it alone (C = 0 where B = 0, which prints no C). Min-max
// layouts 2-3 and min-sum read back nothing: their rows sum curves, whose
// constants the parse folds into one. Nor does a model over 2^20 nodes,
// far past any CESM machine, whose O(N) exact-search tables would take
// gigabytes. SolveModel's round trip confirms what it reads.
func readSpec(p *ampl.Result) (Spec, bool) {
	n, ok := p.Params["N"]
	if !ok || n != math.Trunc(n) || math.Abs(n) > 1<<20 {
		return Spec{}, false
	}
	s := Spec{TotalNodes: int(n), Perf: map[cesm.Component]perf.Model{}}
	if _, ok := p.VarIndex["n_atm_k"]; ok {
		s.Resolution = cesm.Res8thDeg
	}
	_, s.ConstrainOcean = p.Sets["OCN_SET"]
	_, s.ConstrainAtm = p.Sets["ATM_SET"]
	rows := map[string]*model.Constraint{}
	for i := range p.Model.Cons {
		rows[p.Model.Cons[i].Name] = &p.Model.Cons[i]
	}
	switch {
	case rows["cap_atm_ocn"] != nil:
		s.Layout = cesm.Layout1
	case rows["cap_atm"] != nil:
		s.Layout = cesm.Layout2
	default:
		s.Layout = cesm.Layout3
	}
	if r := rows["sync_hi"]; r != nil {
		s.SyncTol = r.RHS
	}
	// curveRow names the row holding each curve alone; sign is the curve's
	// sign in that row's body.
	curveRow, sign := map[cesm.Component]string{}, 1.0
	_, hasS := p.VarIndex["S"]
	_, hasT := p.VarIndex["T"]
	switch {
	case hasS && p.Model.Sense == model.Maximize:
		s.Objective, sign = MaxMin, -1
		for _, c := range cesm.OptimizedComponents {
			curveRow[c] = "smin_" + c.String()
		}
	case hasT && s.Layout == cesm.Layout1:
		curveRow = map[cesm.Component]string{cesm.ICE: "icelnd_ge_ice", cesm.LND: "icelnd_ge_lnd", cesm.ATM: "T_ge_seq", cesm.OCN: "T_ge_ocn"}
	default:
		return Spec{}, false
	}
	for c, name := range curveRow {
		r := rows[name]
		if r == nil {
			return Spec{}, false
		}
		s.Perf[c] = readCurve(r.Body, sign)
	}
	return s, true
}

// readCurve reads the terms A / n, B * n ^ C (B * n when C is 1) and D of
// a row body that holds one curve with the given sign; the row's bare
// variables are skipped.
func readCurve(body expr.Expr, sign float64) perf.Model {
	var m perf.Model
	var walk func(e expr.Expr, sg float64)
	walk = func(e expr.Expr, sg float64) {
		switch t := e.(type) {
		case expr.Add:
			for _, term := range t.Terms {
				walk(term, sg)
			}
		case expr.Neg:
			walk(t.Arg, -sg)
		case expr.Const:
			m.D = sg * float64(t)
		case expr.Div:
			if a, ok := t.Num.(expr.Const); ok {
				m.A = sg * float64(a)
			}
		case expr.Mul:
			if len(t.Factors) == 2 {
				b, _ := t.Factors[0].(expr.Const)
				m.B, m.C = sg*float64(b), 1
				if p, ok := t.Factors[1].(expr.Pow); ok {
					c, _ := p.Exponent.(expr.Const)
					m.C = float64(c)
				}
			}
		}
	}
	walk(body, sign)
	return m
}

// PredictTotal evaluates the spec's fitted models at an arbitrary
// allocation and composes the layout total — the "HSLB predicted time" the
// paper prints for comparison against actual runs.
func PredictTotal(s Spec, alloc cesm.Allocation) (float64, map[cesm.Component]float64) {
	comp := map[cesm.Component]float64{}
	for _, c := range cesm.OptimizedComponents {
		comp[c] = s.Perf[c].Eval(float64(alloc.Get(c)))
	}
	return cesm.ComposeTotal(s.Layout, comp), comp
}

// TuneToSweetSpots adjusts a predicted allocation toward known sweet spots,
// as the paper did for the final 1/8° 32768-node run ("chosen based on the
// HSLB predicted nodes but adjusting node counts toward known component
// sweet spots"). The atmosphere and ocean are snapped to their
// decomposition granularity or set; ice+land are then repaired to fit the
// layout-1 sharing constraint.
func TuneToSweetSpots(s Spec, alloc cesm.Allocation) cesm.Allocation {
	out := alloc
	if s.Resolution == cesm.Res8thDeg {
		out.Atm = cesm.SnapToMultiple(out.Atm, cesm.AtmNodeMultiple)
		out.Ocn = cesm.SnapToMultiple(out.Ocn, cesm.OceanNodeMultiple)
	} else {
		out.Atm = cesm.SnapToSweetSpot(out.Atm, cesm.AtmSet(s.Resolution, s.TotalNodes))
		out.Ocn = cesm.SnapToSweetSpot(out.Ocn, cesm.OceanSet(s.Resolution))
	}
	if out.Atm+out.Ocn > s.TotalNodes {
		out.Atm = s.TotalNodes - out.Ocn
	}
	if s.Layout == cesm.Layout1 && out.Ice+out.Lnd > out.Atm {
		// Keep the ice/land ratio, shrink into the atmosphere share.
		ratio := float64(out.Ice) / float64(out.Ice+out.Lnd)
		out.Ice = int(ratio * float64(out.Atm))
		if out.Ice < 1 {
			out.Ice = 1
		}
		out.Lnd = out.Atm - out.Ice
		if out.Lnd < 1 {
			out.Lnd = 1
			out.Ice = out.Atm - 1
		}
	}
	return out
}
