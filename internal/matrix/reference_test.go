package matrix

import "math"

// Reference factorizations that only this package's tests use: LU with
// and without partial pivoting and the pivoted solve. The ABFT layer runs
// its own checksum-carrying LU (abft.LUFactorizer).

// pivotTol is the relative threshold below which a pivot is considered zero.
const pivotTol = 1e-13

// LUNoPivot factors the square matrix a in place into unit-lower L and upper
// U (a = L*U, L's unit diagonal implicit). It requires a to be factorizable
// without pivoting (e.g. diagonally dominant), as is standard for ABFT
// demonstrations where row exchanges would break checksum locality.
func LUNoPivot(a *Dense) error {
	if a.Rows != a.Cols {
		panic("matrix: LU requires a square matrix")
	}
	n := a.Rows
	scale := a.MaxAbs()
	if scale == 0 {
		return ErrSingular
	}
	for k := 0; k < n; k++ {
		if err := luStep(a, k, scale); err != nil {
			return err
		}
	}
	return nil
}

// luStep performs elimination step k of a right-looking LU on the (possibly
// bordered) matrix a: it scales column k below the pivot and applies the
// Schur update to rows k+1..Rows-1.
func luStep(a *Dense, k int, scale float64) error {
	p := a.At(k, k)
	if math.Abs(p) <= pivotTol*scale {
		return ErrSingular
	}
	urow := a.RowView(k)
	for i := k + 1; i < a.Rows; i++ {
		row := a.RowView(i)
		l := row[k] / p
		row[k] = l
		if l == 0 {
			continue
		}
		for j := k + 1; j < a.Cols; j++ {
			row[j] -= l * urow[j]
		}
	}
	return nil
}

// LUPartialPivot factors a in place with partial (row) pivoting, returning
// the permutation: perm[i] is the original index of the row now at i.
func LUPartialPivot(a *Dense) (perm []int, err error) {
	if a.Rows != a.Cols {
		panic("matrix: LU requires a square matrix")
	}
	n := a.Rows
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	scale := a.MaxAbs()
	if scale == 0 {
		return nil, ErrSingular
	}
	for k := 0; k < n; k++ {
		// Select pivot.
		best, bestVal := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > bestVal {
				best, bestVal = i, v
			}
		}
		if bestVal <= pivotTol*scale {
			return nil, ErrSingular
		}
		if best != k {
			ra, rb := a.RowView(k), a.RowView(best)
			for j := 0; j < n; j++ {
				ra[j], rb[j] = rb[j], ra[j]
			}
			perm[k], perm[best] = perm[best], perm[k]
		}
		if err := luStep(a, k, scale); err != nil {
			return nil, err
		}
	}
	return perm, nil
}

// SolveLUPivot solves a*x = b given pivoted LU factors and the permutation
// from LUPartialPivot, returning x.
func SolveLUPivot(lu *Dense, perm []int, b []float64) []float64 {
	n := lu.Rows
	x := make([]float64, n)
	for i, src := range perm {
		x[i] = b[src]
	}
	SolveLU(lu, x)
	return x
}
