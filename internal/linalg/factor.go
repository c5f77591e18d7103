package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

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

// SolveSPD solves a·x = b for the symmetric positive-definite matrix a in
// place: b is overwritten with x, and l (the same order as a) receives the
// Cholesky factor L with a = L·Lᵀ; a is not modified, and the Cholesky
// attempts read only its lower triangle. When a is not quite positive
// definite (as happens with near-singular Gauss–Newton systems) it retries
// with the diagonal raised by 1e-10·max(|a_ii|, 1), then falls back to LU on
// a itself; only that last fallback allocates.
func SolveSPD(a, l *Matrix, b Vector) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n || len(b) != n {
		return ErrDimension
	}
	if cholesky(a, l, false) || cholesky(a, l, true) {
		// Forward L·y = b, then backward Lᵀ·x = y, both over b.
		for i := 0; i < n; i++ {
			s := b[i]
			for j := 0; j < i; j++ {
				s -= l.At(i, j) * b[j]
			}
			b[i] = s / l.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			s := b[i]
			for j := i + 1; j < n; j++ {
				s -= l.At(j, i) * b[j]
			}
			b[i] = s / l.At(i, i)
		}
		return nil
	}
	x, err := SolveLU(a, b)
	if err != nil {
		return err
	}
	copy(b, x)
	return nil
}

// cholesky writes the lower triangle of the Cholesky factor of a, its
// diagonal regularized when reg is set, into l and reports whether a was
// positive definite. It reads only entries of l it has already written.
func cholesky(a, l *Matrix, reg bool) bool {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		if reg {
			r := math.Abs(d)
			if r < 1 {
				r = 1
			}
			d += 1e-10 * r
		}
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return false
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
	return true
}
