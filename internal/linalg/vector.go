// Package linalg is the dense linear algebra left under the Table II fit:
//
//   - SolveSPD, the in-place symmetric positive-definite solve of each
//     Levenberg–Marquardt step's damped normal equations in internal/nls
//     (Cholesky, then a diagonally regularized Cholesky, into a factor buffer
//     the caller owns, so a step allocates nothing);
//   - FactorLU / SolveLU, LU with partial pivoting: SolveSPD's last fallback
//     when neither Cholesky attempt succeeds, and the factorization the
//     benchmark's linalg.lu_us probe times.
//
// Everything is dense and sized for HSLB's fits (a handful of parameters).
// The implementations favour clarity and numerical robustness (partial
// pivoting) over blocking or SIMD tricks.
package linalg

import "errors"

// ErrDimension is returned when operands have incompatible shapes.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64
