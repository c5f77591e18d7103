// Package linalg provides the small dense linear algebra behind the
// Levenberg–Marquardt step of internal/nls: a row-major matrix, the few
// vector helpers that step uses, and the symmetric positive-definite solve
// (Cholesky, with an LU fallback) of its normal equations.
//
// Everything is dense and written for the modest problem sizes that arise in
// HSLB models (a few fit parameters). The implementations favour clarity and
// numerical robustness (partial pivoting) over blocking or SIMD tricks.
package linalg

import (
	"errors"
	"math"
)

// ErrDimension is returned when operands have incompatible shapes.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64

// NormInf returns the max-absolute-value norm of v.
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Scale returns c*v as a new vector.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AllFinite reports whether every entry of v is finite (no NaN or Inf).
func (v Vector) AllFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
