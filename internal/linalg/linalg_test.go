package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

func vecApproxEq(a, b Vector, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approxEq(a[i], b[i], eps) {
			return false
		}
	}
	return true
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// mulVec returns m*v, the check the solver tests verify against.
func mulVec(m *Matrix, v Vector) Vector {
	out := make(Vector, m.Rows)
	for i := range out {
		for j, x := range v {
			out[i] += m.At(i, j) * x
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestLUSolve(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := Vector{5, -2, 9}
	x, err := SolveLU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := mulVec(a, x); !vecApproxEq(got, b, 1e-10) {
		t.Fatalf("A*x = %v, want %v", got, b)
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant-ish
		}
		want := make(Vector, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := mulVec(a, want)
		got, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		return vecApproxEq(got, want, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randSPD returns AᵀA + n·I for a random A: symmetric and well conditioned.
func randSPD(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n, n)
	spd := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				spd.Data[i*n+j] += a.At(k, i) * a.At(k, j)
			}
		}
		spd.Data[i*n+i] += float64(n)
	}
	return spd
}

// solveSPD runs SolveSPD on a copy of b and returns the solution and factor.
func solveSPD(t *testing.T, a *Matrix, b Vector) (Vector, *Matrix) {
	t.Helper()
	x := append(Vector(nil), b...)
	l := NewMatrix(a.Rows, a.Cols)
	if err := SolveSPD(a, l, x); err != nil {
		t.Fatal(err)
	}
	return x, l
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 5)
	before := a.Clone()
	want := Vector{1, -2, 3, 0.5, -1}
	got, l := solveSPD(t, a, mulVec(a, want))
	if !vecApproxEq(got, want, 1e-8) {
		t.Fatalf("x = %v, want %v", got, want)
	}
	for i := range a.Data {
		if a.Data[i] != before.Data[i] {
			t.Fatalf("SolveSPD modified a at %d", i)
		}
	}
	// The factor it leaves in l reconstructs a: (L·Lᵀ)_ij = Σ_k≤min(i,j) L_ik·L_jk.
	for i := 0; i < a.Rows; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if !approxEq(s, a.At(i, j), 1e-8) {
				t.Fatalf("(L·Lᵀ)(%d,%d) = %v, want %v", i, j, s, a.At(i, j))
			}
		}
	}
}

// TestSolveSPDAllocatesNothing holds the Levenberg–Marquardt step's promise:
// on a positive-definite system the solve runs in the caller's buffers.
func TestSolveSPDAllocatesNothing(t *testing.T) {
	a := randSPD(rand.New(rand.NewSource(6)), 4)
	l := NewMatrix(4, 4)
	b := make(Vector, 4)
	allocs := testing.AllocsPerRun(100, func() {
		copy(b, Vector{1, 2, 3, 4})
		if err := SolveSPD(a, l, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveSPD allocated %v times per call, want 0", allocs)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if cholesky(a, NewMatrix(2, 2), false) {
		t.Fatal("cholesky accepted an indefinite matrix")
	}
}

func TestSolveSPDFallback(t *testing.T) {
	// Symmetric but indefinite: SolveSPD should still solve via LU fallback.
	a := fromRows([][]float64{{1, 2}, {2, 1}})
	b := Vector{3, 3}
	x, _ := solveSPD(t, a, b)
	if got := mulVec(a, x); !vecApproxEq(got, b, 1e-8) {
		t.Fatalf("A*x = %v, want %v", got, b)
	}
}

// TestSolveSPDRegularizesSingularPSD covers SolveSPD's middle branch: a
// rank-deficient positive semi-definite system (a Gauss-Newton JᵀJ with
// collinear columns) defeats both plain Cholesky and LU, but the diagonal
// regularization still yields a consistent solution.
func TestSolveSPDRegularizesSingularPSD(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {1, 1}})
	b := Vector{2, 2}
	if _, err := SolveLU(a, b); err != ErrSingular {
		t.Fatalf("SolveLU err = %v, want ErrSingular", err)
	}
	x, _ := solveSPD(t, a, b)
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x = %v, not finite", x)
		}
	}
	if got := mulVec(a, x); !vecApproxEq(got, b, 1e-8) {
		t.Fatalf("A*x = %v, want %v", got, b)
	}
}

// TestFactorLULeavesInputIntact guards the LU fallback, which factors the
// damped matrix SolveSPD was given and must not disturb it.
func TestFactorLULeavesInputIntact(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := FactorLU(a); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(0, 1) != 2 || a.At(1, 0) != 3 || a.At(1, 1) != 4 {
		t.Fatalf("FactorLU modified its input: %v", a.Data)
	}
}

// TestDimensionMismatch pins the shape contract: factorizations and solves
// return ErrDimension, the constructor panics with it.
func TestDimensionMismatch(t *testing.T) {
	rect := NewMatrix(2, 3)
	spd := randSPD(rand.New(rand.NewSource(9)), 3)
	lu, err := FactorLU(spd)
	if err != nil {
		t.Fatal(err)
	}
	returns := []struct {
		name string
		fn   func() error
	}{
		{"FactorLU/non-square", func() error { _, err := FactorLU(rect); return err }},
		{"LU.Solve/short-rhs", func() error { _, err := lu.Solve(Vector{1, 2}); return err }},
		{"SolveSPD/non-square", func() error { return SolveSPD(rect, NewMatrix(2, 2), Vector{1, 2}) }},
		{"SolveSPD/short-factor", func() error { return SolveSPD(spd, NewMatrix(2, 2), Vector{1, 2, 3}) }},
		{"SolveSPD/long-rhs", func() error { return SolveSPD(spd, NewMatrix(3, 3), Vector{1, 2, 3, 4}) }},
	}
	for _, tc := range returns {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fn(); err != ErrDimension {
				t.Fatalf("err = %v, want ErrDimension", err)
			}
		})
	}
	t.Run("NewMatrix/negative", func(t *testing.T) {
		defer func() {
			if r := recover(); r != ErrDimension {
				t.Fatalf("recovered %v, want ErrDimension", r)
			}
		}()
		NewMatrix(-1, 2)
	})
}
