package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Matrix // combined L (unit lower) and U storage
	piv []int   // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. The input is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrDimension
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below the diagonal.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Data[i*n : (i+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A*x = b using the factorization.
func (f *LU) Solve(b Vector) (Vector, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, ErrDimension
	}
	x := make(Vector, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return nil, ErrSingular
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveLU is a convenience wrapper: factor a and solve a*x = b.
func SolveLU(a *Matrix, b Vector) (Vector, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Cholesky holds the lower-triangular factor L with A = L*Lᵀ.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization of the symmetric
// positive-definite matrix a. Only the lower triangle of a is read.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrDimension
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve solves A*x = b given A = L*Lᵀ.
func (c *Cholesky) Solve(b Vector) (Vector, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, ErrDimension
	}
	// Forward: L*y = b.
	y := make(Vector, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	// Backward: Lᵀ*x = y.
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}

// SolveSPD factors the symmetric positive-definite matrix a and solves
// a*x = b, falling back to LU with diagonal regularization when a is not
// quite positive definite (as happens with near-singular Gauss-Newton
// systems).
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	if c, err := FactorCholesky(a); err == nil {
		return c.Solve(b)
	}
	// Regularize: a + eps*diag(max(|a_ii|,1)).
	reg := a.Clone()
	for i := 0; i < reg.Rows; i++ {
		d := math.Abs(reg.At(i, i))
		if d < 1 {
			d = 1
		}
		reg.Set(i, i, reg.At(i, i)+1e-10*d)
	}
	if c, err := FactorCholesky(reg); err == nil {
		return c.Solve(b)
	}
	return SolveLU(a, b)
}
