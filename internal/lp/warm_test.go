package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cloneProblem deep-copies p so a cold reference solve cannot share state
// with the WarmSolver under test.
func cloneProblem(p *Problem) *Problem {
	q := &Problem{
		NumVars: p.NumVars,
		Obj:     append([]float64(nil), p.Obj...),
		Lower:   append([]float64(nil), p.Lower...),
		Upper:   append([]float64(nil), p.Upper...),
	}
	for _, c := range p.Cons {
		q.Cons = append(q.Cons, Constraint{
			Coef:  append([]float64(nil), c.Coef...),
			Sense: c.Sense,
			RHS:   c.RHS,
		})
	}
	return q
}

// checkAgainstCold compares the warm solver's answer on its current problem
// against a fresh cold Solve of an identical problem.
func checkAgainstCold(t *testing.T, tag string, ws *WarmSolver) {
	t.Helper()
	warm, err := ws.Solve()
	if err != nil {
		t.Fatalf("%s: warm: %v", tag, err)
	}
	cold, err := Solve(cloneProblem(ws.p))
	if err != nil {
		t.Fatalf("%s: cold: %v", tag, err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("%s: warm status %v, cold %v", tag, warm.Status, cold.Status)
	}
	if warm.Status != Optimal {
		return
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
		t.Fatalf("%s: warm obj %v, cold obj %v", tag, warm.Obj, cold.Obj)
	}
	// The warm X must actually satisfy the problem (the vertex may differ
	// from cold's when the optimum is degenerate, but never the feasibility
	// or the objective).
	p := ws.p
	for j := 0; j < p.NumVars; j++ {
		if warm.X[j] < p.Lower[j]-1e-6 || warm.X[j] > p.Upper[j]+1e-6 {
			t.Fatalf("%s: warm X[%d]=%v outside [%v,%v]", tag, j, warm.X[j], p.Lower[j], p.Upper[j])
		}
	}
	for i, c := range p.Cons {
		s := 0.0
		for j, v := range c.Coef {
			s += v * warm.X[j]
		}
		bad := false
		switch c.Sense {
		case LE:
			bad = s > c.RHS+1e-6*(1+math.Abs(c.RHS))
		case GE:
			bad = s < c.RHS-1e-6*(1+math.Abs(c.RHS))
		case EQ:
			bad = math.Abs(s-c.RHS) > 1e-6*(1+math.Abs(c.RHS))
		}
		if bad {
			t.Fatalf("%s: warm X violates constraint %d: lhs %v vs rhs %v", tag, i, s, c.RHS)
		}
	}
}

// TestWarmMatchesColdOnCutSequences is the core warm-start gate: random
// bounded LPs, then a stream of random LE/GE cuts appended one at a time.
// After every cut the warm re-solve must agree with a from-scratch solve.
func TestWarmMatchesColdOnCutSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Obj[j] = rng.Float64()*4 - 2
			p.Lower[j] = 0
			// Mix finite and infinite uppers so bound flips get exercised.
			if rng.Intn(2) == 0 {
				p.Upper[j] = 1 + rng.Float64()*9
			}
		}
		// A generous box keeps the initial LP bounded even when the
		// objective pulls toward an infinite upper bound.
		box := make([]float64, n)
		for j := range box {
			box[j] = 1
		}
		p.AddConstraint(box, LE, 20+rng.Float64()*20)

		ws := NewWarmSolver(p)
		checkAgainstCold(t, "initial", ws)
		for cut := 0; cut < 8; cut++ {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = rng.Float64()*2 - 1
			}
			sense := LE
			if rng.Intn(3) == 0 {
				sense = GE
			}
			// RHS near the current optimum's activity, so roughly half the
			// cuts actually bite (the interesting warm-start case).
			sol, err := Solve(cloneProblem(ws.p))
			if err != nil {
				t.Fatal(err)
			}
			act := 0.0
			if sol.Status == Optimal {
				for j := range coef {
					act += coef[j] * sol.X[j]
				}
			}
			rhs := act + rng.Float64()*2 - 1
			ws.AddConstraint(coef, sense, rhs)
			checkAgainstCold(t, "cut", ws)
			if ws.p.Cons[len(ws.p.Cons)-1].Sense != sense {
				t.Fatal("constraint not recorded")
			}
		}
		st := ws.Stats()
		if st.ColdSolves < 1 {
			t.Fatalf("trial %d: no cold solve recorded: %+v", trial, st)
		}
	}
}

// TestWarmActuallyWarm: on a well-behaved cut sequence the solver must
// answer from the cached basis, not fall back cold every time.
func TestWarmActuallyWarm(t *testing.T) {
	p := NewProblem(3)
	p.Obj = []float64{-1, -2, -1}
	p.Upper = []float64{10, 10, 10}
	p.AddConstraint([]float64{1, 1, 1}, LE, 15)
	ws := NewWarmSolver(p)
	if _, err := ws.Solve(); err != nil {
		t.Fatal(err)
	}
	cuts := [][]float64{
		{1, 1, 0}, {0, 1, 1}, {1, 0, 1}, {2, 1, 1},
	}
	for i, c := range cuts {
		ws.AddConstraint(c, LE, 9-float64(i))
		if _, err := ws.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	st := ws.Stats()
	if st.WarmResolves == 0 {
		t.Fatalf("every re-solve fell back cold: %+v", st)
	}
	if st.ColdSolves != 1 {
		t.Fatalf("cold solves = %d, want exactly the initial one: %+v", st.ColdSolves, st)
	}
}

// TestSolveContextCanceled: a done context stops the cold and the warm
// path alike with Status Canceled, and the same solver answers once it is
// asked under a live context again.
func TestSolveContextCanceled(t *testing.T) {
	p := NewProblem(3)
	p.Obj = []float64{-1, -2, -1}
	p.Upper = []float64{10, 10, 10}
	p.AddConstraint([]float64{1, 1, 1}, LE, 15)
	ws := NewWarmSolver(p)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if sol, err := ws.SolveContext(done); err != nil || sol.Status != Canceled {
		t.Fatalf("cold under a done context: %+v, %v; want canceled", sol, err)
	}
	checkAgainstCold(t, "cold", ws)
	ws.AddConstraint([]float64{0, 1, 1}, LE, 9)
	if sol, err := ws.SolveContext(done); err != nil || sol.Status != Canceled {
		t.Fatalf("warm under a done context: %+v, %v; want canceled", sol, err)
	}
	checkAgainstCold(t, "after cut", ws)
}

// TestWarmInfeasibleAfterCut: contradictory cuts must be reported
// Infeasible by the warm path exactly as by a cold solve.
func TestWarmInfeasibleAfterCut(t *testing.T) {
	p := NewProblem(2)
	p.Obj = []float64{1, 1}
	p.Upper = []float64{10, 10}
	p.AddConstraint([]float64{1, 1}, GE, 3)
	ws := NewWarmSolver(p)
	sol, err := ws.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	ws.AddConstraint([]float64{1, 1}, LE, 2) // contradicts x1+x2 >= 3
	sol, err = ws.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// The solver stays usable after an infeasible stretch is relaxed away
	// is not possible (constraints only accumulate), but further solves
	// must stay consistent.
	sol, err = ws.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("re-solve status %v, want infeasible", sol.Status)
	}
}

// TestWarmEqualityDropsCache: EQ rows cannot join a finished basis; the
// solver must fall back cold and still answer correctly.
func TestWarmEqualityDropsCache(t *testing.T) {
	p := NewProblem(2)
	p.Obj = []float64{-1, -1}
	p.Upper = []float64{5, 5}
	p.AddConstraint([]float64{1, 2}, LE, 8)
	ws := NewWarmSolver(p)
	if _, err := ws.Solve(); err != nil {
		t.Fatal(err)
	}
	ws.AddConstraint([]float64{1, -1}, EQ, 1)
	checkAgainstCold(t, "after-eq", ws)
	if st := ws.Stats(); st.ColdSolves != 2 {
		t.Fatalf("cold solves = %d, want 2 (EQ forces a cold restart)", st.ColdSolves)
	}
}

// TestWarmFreeAndReflectedVars: split free variables and reflected
// (-inf, u] variables exercise the transformed-coordinate bookkeeping in
// appendRows.
func TestWarmFreeAndReflectedVars(t *testing.T) {
	p := NewProblem(3)
	p.Obj = []float64{1, 1, 1}
	p.Lower = []float64{math.Inf(-1), math.Inf(-1), 0}
	p.Upper = []float64{math.Inf(1), 4, 10} // free, reflected, plain
	p.AddConstraint([]float64{1, 1, 1}, GE, 2)
	p.AddConstraint([]float64{1, -1, 0}, GE, -3)
	p.AddConstraint([]float64{-1, 0, 0}, LE, 5) // x0 >= -5 keeps it bounded
	p.AddConstraint([]float64{0, -1, 0}, LE, 6) // x1 >= -6
	ws := NewWarmSolver(p)
	checkAgainstCold(t, "initial", ws)
	ws.AddConstraint([]float64{1, 1, 0}, GE, 1)
	checkAgainstCold(t, "cut1", ws)
	ws.AddConstraint([]float64{0, 1, 1}, GE, 2.5)
	checkAgainstCold(t, "cut2", ws)
	ws.AddConstraint([]float64{1, 0, 1}, LE, 7)
	checkAgainstCold(t, "cut3", ws)
}

// TestWarmBindingCutKnownOptimum: a cut that cuts off the first optimum
// moves the warm re-solve to the known next vertex. min −3x − 5y over
// x ≤ 4, y ≤ 6, 3x + 2y ≤ 18 is optimal at (2, 6) with −36; adding
// x + y ≤ 7 moves it to (1, 6) with −33.
func TestWarmBindingCutKnownOptimum(t *testing.T) {
	p := NewProblem(2)
	p.Obj = []float64{-3, -5}
	p.Upper = []float64{4, 6}
	p.AddConstraint([]float64{3, 2}, LE, 18)
	ws := NewWarmSolver(p)
	first, err := ws.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(first.Obj, -36, 1e-9) || !approxEq(first.X[0], 2, 1e-9) || !approxEq(first.X[1], 6, 1e-9) {
		t.Fatalf("first solve: obj %v at %v, want -36 at (2, 6)", first.Obj, first.X)
	}
	ws.AddConstraint([]float64{1, 1}, LE, 7)
	warm, err := ws.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approxEq(warm.Obj, -33, 1e-9) ||
		!approxEq(warm.X[0], 1, 1e-9) || !approxEq(warm.X[1], 6, 1e-9) {
		t.Fatalf("after cut: %v obj %v at %v, want -33 at (1, 6)", warm.Status, warm.Obj, warm.X)
	}
	checkAgainstCold(t, "cut", ws)
}

// TestWarmBoundFlipsInOnePass: over many [0, 1] columns, minimize a
// positive cost and append one covering cut Σ aⱼxⱼ ≥ rhs whose rhs takes
// several columns to reach. The dual simplex must walk the columns in
// order of their ratio cⱼ/aⱼ, flipping each whose whole range leaves the
// row short, and pivot once on the column that closes it: more than one
// bound flip, no more dual pivots than appended rows, and the objective
// of a cold Solve.
func TestWarmBoundFlipsInOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(40)
		p := NewProblem(n)
		box := make([]float64, n)
		for j := 0; j < n; j++ {
			p.Obj[j] = 0.5 + rng.Float64()
			p.Upper[j] = 1
			box[j] = 1
		}
		p.AddConstraint(box, LE, float64(n))
		ws := NewWarmSolver(p)
		checkAgainstCold(t, "initial", ws)
		cover := make([]float64, n)
		sum := 0.0
		for j := range cover {
			cover[j] = 0.5 + rng.Float64()
			sum += cover[j]
		}
		ws.AddConstraint(cover, GE, sum*(0.2+0.5*rng.Float64()))
		before := ws.Stats()
		checkAgainstCold(t, "cover", ws)
		st := ws.Stats().Sub(before)
		if st.WarmResolves != 1 || st.BoundFlips <= 1 || st.DualPivots > 1 {
			t.Fatalf("trial %d: %+v; want one warm re-solve, several bound flips and at most one dual pivot", trial, st)
		}
	}
}

// TestAddConstraintsMatchesOneAtATime: appending k rows in one batch gives
// the same tableau, and so the same solution bit for bit, as k single
// appends.
func TestAddConstraintsMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		p := NewProblem(n)
		box := make([]float64, n)
		for j := 0; j < n; j++ {
			p.Obj[j] = rng.Float64()*4 - 2
			p.Upper[j] = 1 + rng.Float64()*9
			box[j] = 1
		}
		p.AddConstraint(box, LE, 5+rng.Float64()*10)
		batch, single := NewWarmSolver(cloneProblem(p)), NewWarmSolver(cloneProblem(p))
		for _, ws := range []*WarmSolver{batch, single} {
			if _, err := ws.Solve(); err != nil {
				t.Fatal(err)
			}
		}
		var cs []Constraint
		for k := 1 + rng.Intn(5); k > 0; k-- {
			c := Constraint{Coef: make([]float64, n), Sense: LE, RHS: rng.Float64()*4 - 1}
			for j := range c.Coef {
				c.Coef[j] = rng.Float64()*2 - 1
			}
			if rng.Intn(3) == 0 {
				c.Sense = GE
			}
			cs = append(cs, c)
		}
		batch.AddConstraints(cs)
		for _, c := range cs {
			single.AddConstraint(c.Coef, c.Sense, c.RHS)
		}
		a, errA := batch.Solve()
		b, errB := single.Solve()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a.Status != b.Status || a.Obj != b.Obj || fmt.Sprint(a.X) != fmt.Sprint(b.X) || batch.Stats() != single.Stats() {
			t.Fatalf("trial %d: batch %v %v %v %+v; one at a time %v %v %v %+v",
				trial, a.Status, a.Obj, a.X, batch.Stats(), b.Status, b.Obj, b.X, single.Stats())
		}
		checkAgainstCold(t, "batch", batch)
	}
}
