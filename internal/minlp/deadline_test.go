package minlp

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hslb/internal/expr"
	"hslb/internal/model"
)

// hardHSLB builds a deliberately hard min-max allocation instance: k
// components share total nodes, with coefficients chosen so that huge
// numbers of allocations are near-ties. The branch-and-bound tree is far
// too large to exhaust in tens of milliseconds.
func hardHSLB(k, total int) *model.Model {
	m := model.New()
	T := m.AddVar("T", model.Continuous, 0, 1e12)
	cap := make([]expr.Expr, 0, k)
	for i := 0; i < k; i++ {
		n := m.AddVar(fmt.Sprintf("n%d", i), model.Integer, 1, float64(total))
		a := 1000.0 + float64(i)*0.001 // near-identical components → many ties
		ti := expr.Sum(expr.Div{Num: expr.C(a), Den: n}, expr.C(1e-6*float64(i)))
		m.AddConstraint(fmt.Sprintf("T%d", i), expr.Sub(ti, T), model.LE, 0)
		cap = append(cap, n)
	}
	m.AddConstraint("cap", expr.Sum(cap...), model.LE, float64(total))
	m.SetObjective(T, model.Minimize)
	return m
}

// TestSolverDeadline is the satellite acceptance test: a hard instance with
// a 50 ms deadline must come back promptly with Status Deadline and a
// feasible incumbent — not hang and not return nothing.
func TestSolverDeadline(t *testing.T) {
	m := hardHSLB(80, 1_000_000)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := SolveContext(ctx, m, Options{MaxNodes: 1 << 30})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("solver returned only after %v against a 50ms deadline", elapsed)
	}
	if r.Status != Deadline {
		t.Fatalf("status = %v (nodes=%d, obj=%v), want deadline", r.Status, r.Nodes, r.Obj)
	}
	if r.X == nil {
		t.Fatal("deadline result carries no incumbent")
	}
	if !m.IsFeasible(r.X, 1e-4) {
		t.Fatalf("deadline incumbent infeasible: %v", r.X)
	}
}

// TestSolverCancellation: an already-cancelled context stops the search at
// the first node boundary rather than running the full tree.
func TestSolverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := SolveContext(ctx, hardHSLB(6, 100000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Deadline {
		t.Fatalf("status = %v, want deadline", r.Status)
	}
	if r.Nodes != 0 {
		t.Fatalf("processed %d nodes under a cancelled context", r.Nodes)
	}
	// The rescue dive may or may not have produced an incumbent from the
	// root relaxation; if it did, the incumbent must be feasible.
	if r.X != nil && !hardHSLB(6, 100000).IsFeasible(r.X, 1e-4) {
		t.Fatal("rescue incumbent infeasible")
	}
}

// TestDeadlineKeepsBestIncumbent: when the deadline fires after an
// incumbent exists, it is returned as-is (no rescue overwrite).
func TestDeadlineKeepsBestIncumbent(t *testing.T) {
	m := hardHSLB(80, 1_000_000)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	r, err := SolveContext(ctx, m, Options{Algorithm: OuterApprox, MaxNodes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Deadline || r.X == nil {
		t.Skipf("instance solved or produced no incumbent (status %v); nothing to assert", r.Status)
	}
	// The incumbent objective must be consistent with its own point.
	if got := m.Objective.Eval(r.X); !approxEq(got, r.Obj, 1e-6) {
		t.Fatalf("reported obj %v != objective at X %v", r.Obj, got)
	}
}
