package ampl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hslb/internal/expr"
	"hslb/internal/model"
)

// CanonicalForm renders the parsed model in a stable normal form suitable
// for content addressing: two AMPL sources that differ only in whitespace,
// comments, statement order, or the order of commutative operands produce
// the same canonical text. Parameters and sets are already folded into
// constants by the parser, so renaming a param while keeping its value also
// leaves the form unchanged.
//
// The form is line-oriented: variables (sorted by name), the objective,
// and constraints (sorted by name, then body). Expressions render in a
// prefix notation with Add/Mul operands sorted. SOS-1 sets are left out:
// the parser derives each from rows the form already holds, and a set
// changes how the solver branches, not the model.
func (r *Result) CanonicalForm() string {
	m := r.Model
	var b strings.Builder

	vars := append([]model.Variable(nil), m.Vars...)
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	for _, v := range vars {
		fmt.Fprintf(&b, "var %s %s [%s,%s]\n",
			v.Name, v.Type, canonNum(v.Lower), canonNum(v.Upper))
	}

	sense := "min"
	if m.Sense == model.Maximize {
		sense = "max"
	}
	fmt.Fprintf(&b, "obj %s %s\n", sense, canonExpr(m.Objective))

	type conLine struct{ name, line string }
	cons := make([]conLine, len(m.Cons))
	for i, c := range m.Cons {
		cons[i] = conLine{
			name: c.Name,
			line: fmt.Sprintf("con %s: %s %s %s", c.Name, canonExpr(c.Body), c.Sense, canonNum(c.RHS)),
		}
	}
	sort.Slice(cons, func(i, j int) bool {
		if cons[i].name != cons[j].name {
			return cons[i].name < cons[j].name
		}
		return cons[i].line < cons[j].line
	})
	for _, c := range cons {
		b.WriteString(c.line)
		b.WriteByte('\n')
	}
	return b.String()
}

// Canonical parses src and returns its canonical form.
func Canonical(src string) (string, error) {
	res, err := Parse(src)
	if err != nil {
		return "", err
	}
	return res.CanonicalForm(), nil
}

// canonExpr renders e in prefix notation with commutative operands sorted,
// so x + y and y + x (and z[2]*2 vs 2*z[2]) canonicalize identically.
// Variables render by name, which is unique within a model, making the
// form independent of declaration order.
func canonExpr(e expr.Expr) string {
	switch t := e.(type) {
	case expr.Const:
		return canonNum(float64(t))
	case expr.Var:
		if t.Name != "" {
			return t.Name
		}
		return fmt.Sprintf("x%d", t.Index)
	case expr.Add:
		return canonNary("+", t.Terms)
	case expr.Mul:
		return canonNary("*", t.Factors)
	case expr.Div:
		return "(/ " + canonExpr(t.Num) + " " + canonExpr(t.Den) + ")"
	case expr.Pow:
		return "(^ " + canonExpr(t.Base) + " " + canonExpr(t.Exponent) + ")"
	case expr.Log:
		return "(log " + canonExpr(t.Arg) + ")"
	case expr.Exp:
		return "(exp " + canonExpr(t.Arg) + ")"
	case expr.Neg:
		return "(neg " + canonExpr(t.Arg) + ")"
	default:
		// Unknown node types render via String(); stable for a given tree.
		return e.String()
	}
}

func canonNary(op string, operands []expr.Expr) string {
	parts := make([]string, len(operands))
	for i, o := range operands {
		parts[i] = canonExpr(o)
	}
	sort.Strings(parts)
	return "(" + op + " " + strings.Join(parts, " ") + ")"
}

// canonNum formats floats with the shortest round-trippable representation,
// so 5, 5.0 and 5e0 in the source all render as "5".
func canonNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
