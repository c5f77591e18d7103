// Package model defines the optimization-model layer used by the LP, MILP,
// NLP and MINLP solvers: typed variables with bounds, linear and nonlinear
// constraints over expression trees, SOS-1 selection sets, and an objective.
//
// It is the in-process analogue of the AMPL models the paper writes for
// Table I: HSLB builds a Model per layout, the MINLP solver consumes it.
package model

import (
	"errors"
	"fmt"
	"math"

	"hslb/internal/expr"
)

// VarType classifies a decision variable.
type VarType int

// Variable types.
const (
	Continuous VarType = iota
	Integer
	Binary
)

func (t VarType) String() string {
	switch t {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("VarType(%d)", int(t))
	}
}

// Sense is a constraint relation.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // body <= RHS
	GE              // body >= RHS
	EQ              // body == RHS
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// ObjSense is the optimization direction.
type ObjSense int

// Objective senses.
const (
	Minimize ObjSense = iota
	Maximize
)

// Variable is a decision variable. Bounds are inclusive; use ±Inf for
// unbounded continuous variables.
type Variable struct {
	Index int
	Name  string
	Type  VarType
	Lower float64
	Upper float64
}

// Constraint is body Sense RHS, where body is an expression over the model's
// variables.
type Constraint struct {
	Name  string
	Body  expr.Expr
	Sense Sense
	RHS   float64
}

// IsLinear reports whether the constraint body is affine.
func (c *Constraint) IsLinear() bool { return expr.IsLinear(c.Body) }

// Violation returns how far x is from satisfying the constraint
// (0 when satisfied).
func (c *Constraint) Violation(x []float64) float64 {
	v := c.Body.Eval(x)
	switch c.Sense {
	case LE:
		return math.Max(0, v-c.RHS)
	case GE:
		return math.Max(0, c.RHS-v)
	default:
		return math.Abs(v - c.RHS)
	}
}

// SOS1 is a special-ordered set of type 1 over binary selector variables:
// exactly one selector is 1 and the bound variable Target equals the
// weight of the chosen selector. This models the discrete "allowed
// allocations" sets for the ocean and atmosphere components (Table I,
// lines 29-31) and is what the paper's solver branches on.
type SOS1 struct {
	Name      string
	Target    int       // variable index tied to the selection
	Selectors []int     // binary variable indices z_k
	Weights   []float64 // allowed values O_k / A_k, ascending
	// Pick1Con and LinkCon locate the set's encoding constraints in Cons
	// (Σz = 1 and Σw·z − target = 0 respectively), as AddSelectionSet and
	// the AMPL parser's selection-set recognizer record them. Solvers that
	// treat the set structurally can substitute both with the interval hull
	// of the still-allowed weights (see internal/minlp). LinkCon ==
	// Pick1Con marks them unset, as on a hand-assembled SOS1.
	Pick1Con int
	LinkCon  int
}

// Model is a mixed-integer nonlinear program.
type Model struct {
	Vars      []Variable
	Cons      []Constraint
	SOS       []SOS1
	Objective expr.Expr
	Sense     ObjSense
}

// New returns an empty minimization model.
func New() *Model { return &Model{Objective: expr.C(0), Sense: Minimize} }

// AddVar appends a variable and returns an expression referencing it.
func (m *Model) AddVar(name string, t VarType, lower, upper float64) expr.Var {
	if t == Binary {
		lower, upper = 0, 1
	}
	idx := len(m.Vars)
	m.Vars = append(m.Vars, Variable{Index: idx, Name: name, Type: t, Lower: lower, Upper: upper})
	return expr.NamedVar(idx, name)
}

// AddConstraint appends body sense rhs.
func (m *Model) AddConstraint(name string, body expr.Expr, sense Sense, rhs float64) {
	m.Cons = append(m.Cons, Constraint{Name: name, Body: body, Sense: sense, RHS: rhs})
}

// SetObjective sets the objective expression and direction.
func (m *Model) SetObjective(e expr.Expr, sense ObjSense) {
	m.Objective = e
	m.Sense = sense
}

// AddSelectionSet constrains target to take one of the given values by
// introducing binary selectors z_k with Σz_k = 1 and target = Σ z_k·v_k,
// registered as an SOS1 set so the solver can branch on the whole set.
// It returns the SOS index.
func (m *Model) AddSelectionSet(name string, target expr.Var, values []float64) int {
	sels := make([]int, len(values))
	zTerms := make([]expr.Expr, len(values))
	linkTerms := make([]expr.Expr, len(values))
	for k, v := range values {
		z := m.AddVar(fmt.Sprintf("%s_z%d", name, k), Binary, 0, 1)
		sels[k] = z.Index
		zTerms[k] = z
		linkTerms[k] = expr.Scale(v, z)
	}
	m.AddConstraint(name+"_pick1", expr.Sum(zTerms...), EQ, 1)
	m.AddConstraint(name+"_link", expr.Sub(expr.Sum(linkTerms...), target), EQ, 0)
	m.SOS = append(m.SOS, SOS1{
		Name:      name,
		Target:    target.Index,
		Selectors: sels,
		Weights:   append([]float64(nil), values...),
		Pick1Con:  len(m.Cons) - 2,
		LinkCon:   len(m.Cons) - 1,
	})
	return len(m.SOS) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.Vars) }

// IntegerVars returns the indices of all integer and binary variables.
func (m *Model) IntegerVars() []int {
	var out []int
	for _, v := range m.Vars {
		if v.Type != Continuous {
			out = append(out, v.Index)
		}
	}
	return out
}

// IsMILP reports whether every constraint and the objective are affine.
func (m *Model) IsMILP() bool {
	if !expr.IsLinear(m.Objective) {
		return false
	}
	for i := range m.Cons {
		if !m.Cons[i].IsLinear() {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the model. Expression trees are immutable and
// shared.
func (m *Model) Clone() *Model {
	out := &Model{
		Vars:      append([]Variable(nil), m.Vars...),
		Cons:      append([]Constraint(nil), m.Cons...),
		Objective: m.Objective,
		Sense:     m.Sense,
	}
	out.SOS = make([]SOS1, len(m.SOS))
	for i, s := range m.SOS {
		out.SOS[i] = SOS1{
			Name:      s.Name,
			Target:    s.Target,
			Selectors: append([]int(nil), s.Selectors...),
			Weights:   append([]float64(nil), s.Weights...),
			Pick1Con:  s.Pick1Con,
			LinkCon:   s.LinkCon,
		}
	}
	return out
}

// Relax returns a copy with every integer/binary variable made continuous
// (bounds kept). This is the continuous relaxation used at the root of
// branch-and-bound.
func (m *Model) Relax() *Model {
	out := m.Clone()
	for i := range out.Vars {
		if out.Vars[i].Type != Continuous {
			out.Vars[i].Type = Continuous
		}
	}
	return out
}

// FixVar tightens variable i to the single value v.
func (m *Model) FixVar(i int, v float64) {
	m.Vars[i].Lower = v
	m.Vars[i].Upper = v
}

// ObjValue evaluates the objective at x.
func (m *Model) ObjValue(x []float64) float64 { return m.Objective.Eval(x) }

// IsFeasible reports whether x satisfies bounds, integrality and all
// constraints within tol.
func (m *Model) IsFeasible(x []float64, tol float64) bool {
	return m.FeasibilityError(x) <= tol
}

// FeasibilityError returns the largest bound/integrality/constraint
// violation at x.
func (m *Model) FeasibilityError(x []float64) float64 {
	worst := 0.0
	for _, v := range m.Vars {
		if x[v.Index] < v.Lower {
			worst = math.Max(worst, v.Lower-x[v.Index])
		}
		if x[v.Index] > v.Upper {
			worst = math.Max(worst, x[v.Index]-v.Upper)
		}
		if v.Type != Continuous {
			worst = math.Max(worst, math.Abs(x[v.Index]-math.Round(x[v.Index])))
		}
	}
	for i := range m.Cons {
		worst = math.Max(worst, m.Cons[i].Violation(x))
	}
	return worst
}

// Validate checks internal consistency: variable indices contiguous, bounds
// ordered, expressions referencing only declared variables, SOS wiring sane.
func (m *Model) Validate() error {
	for i, v := range m.Vars {
		if v.Index != i {
			return fmt.Errorf("model: variable %q has index %d, want %d", v.Name, v.Index, i)
		}
		if v.Lower > v.Upper {
			return fmt.Errorf("model: variable %q has empty bound interval [%g,%g]", v.Name, v.Lower, v.Upper)
		}
		if v.Type != Continuous && (math.IsInf(v.Lower, 0) || math.IsInf(v.Upper, 0)) {
			return fmt.Errorf("model: integer variable %q must have finite bounds", v.Name)
		}
	}
	check := func(e expr.Expr, where string) error {
		if e == nil {
			return fmt.Errorf("model: nil expression in %s", where)
		}
		if mi := expr.MaxVarIndex(e); mi >= len(m.Vars) {
			return fmt.Errorf("model: %s references undeclared variable x%d", where, mi)
		}
		return nil
	}
	if err := check(m.Objective, "objective"); err != nil {
		return err
	}
	for i := range m.Cons {
		if err := check(m.Cons[i].Body, "constraint "+m.Cons[i].Name); err != nil {
			return err
		}
	}
	for _, s := range m.SOS {
		if len(s.Selectors) != len(s.Weights) {
			return fmt.Errorf("model: SOS %q has %d selectors but %d weights", s.Name, len(s.Selectors), len(s.Weights))
		}
		if len(s.Selectors) == 0 {
			return errors.New("model: empty SOS set " + s.Name)
		}
		for _, idx := range append([]int{s.Target}, s.Selectors...) {
			if idx < 0 || idx >= len(m.Vars) {
				return fmt.Errorf("model: SOS %q references invalid variable %d", s.Name, idx)
			}
		}
		for _, ci := range [2]int{s.Pick1Con, s.LinkCon} {
			if s.Pick1Con != s.LinkCon && (ci < 0 || ci >= len(m.Cons) || m.Cons[ci].Sense != EQ) {
				return fmt.Errorf("model: SOS %q encoding row %d is not an equality constraint", s.Name, ci)
			}
		}
		for _, idx := range s.Selectors {
			// Selectors must live in [0,1]; relaxations and branch fixings
			// keep the bounds inside that interval while dropping the
			// Binary type, so the check is on bounds rather than type.
			if m.Vars[idx].Lower < 0 || m.Vars[idx].Upper > 1 {
				return fmt.Errorf("model: SOS %q selector %q has bounds outside [0,1]", s.Name, m.Vars[idx].Name)
			}
		}
	}
	return nil
}
