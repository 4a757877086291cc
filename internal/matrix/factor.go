package matrix

import (
	"errors"
	"math"

	"abftckpt/internal/rng"
)

// ErrSingular is returned when a factorization meets a (near-)zero pivot.
var ErrSingular = errors.New("matrix: singular or near-singular pivot")

// SolveLU solves a*x = b given in-place LU factors (unit-lower L, upper U),
// such as those of abft.LUFactorizer.LU, overwriting b with x.
func SolveLU(lu *Dense, b []float64) {
	n := lu.Rows
	if len(b) != n {
		panic("matrix: SolveLU dimension mismatch")
	}
	// Forward substitution with unit diagonal.
	for i := 1; i < n; i++ {
		row := lu.RowView(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu.RowView(i)
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// ExtractLU splits in-place LU storage into explicit L (unit diagonal) and U.
func ExtractLU(lu *Dense) (l, u *Dense) {
	n := lu.Rows
	l, u = NewDense(n, n), NewDense(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < i; j++ {
			l.Set(i, j, lu.At(i, j))
		}
		for j := i; j < n; j++ {
			u.Set(i, j, lu.At(i, j))
		}
	}
	return l, u
}

// LUResidual returns ||A - L*U||_F / ||A||_F for in-place LU factors.
func LUResidual(original, lu *Dense) float64 {
	l, u := ExtractLU(lu)
	prod := NewDense(original.Rows, original.Cols)
	Mul(prod, l, u)
	diff := NewDense(original.Rows, original.Cols)
	Sub(diff, original, prod)
	denom := original.FrobeniusNorm()
	if denom == 0 {
		return diff.FrobeniusNorm()
	}
	return diff.FrobeniusNorm() / denom
}

// RandDense fills a new rows x cols matrix with uniform values in [-1, 1).
func RandDense(rows, cols int, src *rng.Source) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*src.Float64() - 1
	}
	return m
}

// RandDiagDominant returns a random n x n strictly diagonally dominant
// matrix, safe for LU without pivoting.
func RandDiagDominant(n int, src *rng.Source) *Dense {
	m := RandDense(n, n, src)
	for i := 0; i < n; i++ {
		var sum float64
		for _, v := range m.RowView(i) {
			sum += math.Abs(v)
		}
		m.Set(i, i, sum+1)
	}
	return m
}
