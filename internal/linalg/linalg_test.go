package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

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

func randSPD(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n, n)
	spd := a.T().Mul(a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // ensure well-conditioned
	}
	return spd
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.NormInf(); !approxEq(got, 4, tol) {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2}
	if got := v.Scale(-2); !vecApproxEq(got, Vector{-2, -4}, tol) {
		t.Errorf("Scale = %v", got)
	}
	if !vecApproxEq(v, Vector{1, 2}, tol) {
		t.Errorf("source mutated: %v", v)
	}
}

func TestVectorAllFinite(t *testing.T) {
	if !(Vector{1, 2}).AllFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).AllFinite() {
		t.Error("NaN not detected")
	}
	if (Vector{math.Inf(1)}).AllFinite() {
		t.Error("Inf not detected")
	}
}

func TestMatrixMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	for i := range want.Data {
		if !approxEq(got.Data[i], want.Data[i], tol) {
			t.Fatalf("Mul = %v, want %v", got, want)
		}
	}
}

func TestMatrixMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 4, 3)
	v := Vector{1, -2, 0.5, 3}
	got := a.MulVecT(v)
	want := mulVec(a.T(), v)
	if !vecApproxEq(got, want, tol) {
		t.Fatalf("MulVecT = %v, want %v", got, want)
	}
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

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 5)
	want := Vector{1, -2, 3, 0.5, -1}
	b := mulVec(a, want)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecApproxEq(got, want, 1e-8) {
		t.Fatalf("x = %v, want %v", got, want)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 6)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := c.l.Mul(c.l.T())
	for i := range a.Data {
		if !approxEq(llt.Data[i], a.Data[i], 1e-8) {
			t.Fatalf("L*Lt != A at %d: %v vs %v", i, llt.Data[i], a.Data[i])
		}
	}
}

func TestSolveSPDFallback(t *testing.T) {
	// Symmetric but indefinite: SolveSPD should still solve via LU fallback.
	a := fromRows([][]float64{{1, 2}, {2, 1}})
	b := Vector{3, 3}
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := mulVec(a, x); !vecApproxEq(got, b, 1e-8) {
		t.Fatalf("A*x = %v, want %v", got, b)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 3, 5)
	att := a.T().T()
	if att.Rows != a.Rows || att.Cols != a.Cols {
		t.Fatal("shape changed")
	}
	for i := range a.Data {
		if a.Data[i] != att.Data[i] {
			t.Fatal("T().T() != A")
		}
	}
}

// TestDimensionMismatch pins the shape contract of every operation the LM
// step calls: factorizations and solves return ErrDimension, products and
// constructors panic with it.
func TestDimensionMismatch(t *testing.T) {
	rect := NewMatrix(2, 3)
	spd := randSPD(rand.New(rand.NewSource(9)), 3)
	lu, err := FactorLU(spd)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := FactorCholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	returns := []struct {
		name string
		fn   func() error
	}{
		{"FactorLU/non-square", func() error { _, err := FactorLU(rect); return err }},
		{"LU.Solve/short-rhs", func() error { _, err := lu.Solve(Vector{1, 2}); return err }},
		{"FactorCholesky/non-square", func() error { _, err := FactorCholesky(rect); return err }},
		{"Cholesky.Solve/long-rhs", func() error { _, err := chol.Solve(Vector{1, 2, 3, 4}); return err }},
	}
	for _, tc := range returns {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fn(); err != ErrDimension {
				t.Fatalf("err = %v, want ErrDimension", err)
			}
		})
	}
	panics := []struct {
		name string
		fn   func()
	}{
		{"Mul", func() { rect.Mul(rect) }},
		{"MulVecT", func() { rect.MulVecT(Vector{1, 2, 3}) }},
		{"NewMatrix/negative", func() { NewMatrix(-1, 2) }},
	}
	for _, tc := range panics {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != ErrDimension {
					t.Fatalf("recovered %v, want ErrDimension", r)
				}
			}()
			tc.fn()
		})
	}
}

// TestMatrixCloneIsDeep guards the LM step, which damps the diagonal of a
// clone of JᵀJ on every trial and must leave JᵀJ itself untouched.
func TestMatrixCloneIsDeep(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 10)
	if a.At(0, 0) != 1 {
		t.Fatalf("Clone aliases the source: a(0,0) = %v", a.At(0, 0))
	}
	if c.Rows != 2 || c.Cols != 2 || c.At(1, 1) != 4 {
		t.Fatalf("Clone = %+v, want a 2×2 copy", c)
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
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.AllFinite() {
		t.Fatalf("x = %v, not finite", x)
	}
	if got := mulVec(a, x); !vecApproxEq(got, b, 1e-8) {
		t.Fatalf("A*x = %v, want %v", got, b)
	}
}
