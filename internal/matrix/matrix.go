// Package matrix provides the dense linear-algebra kernels that the ABFT
// layer protects: a row-major dense matrix type, parallel blocked
// matrix-matrix products, LU triangular solves and residuals, norms and
// generators.
//
// The package is self-contained (stdlib only) and tuned for clarity over
// peak FLOPs: kernels are cache-blocked and parallelized across row bands
// with goroutines, which is representative enough to exercise the ABFT
// encodings and the composite fault-tolerance protocol on real data.
package matrix

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Dense is a row-major dense matrix. Row i occupies
// Data[i*Stride : i*Stride+Cols].
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense allocates a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic("matrix: dimensions must be positive")
	}
	return &Dense{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (copied).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("matrix: ragged rows")
		}
		copy(m.RowView(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// RowView returns row i as a slice sharing the matrix storage.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic("matrix: row out of range")
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// View returns an r x c submatrix starting at (i0, j0), sharing storage.
func (m *Dense) View(i0, j0, r, c int) *Dense {
	if i0 < 0 || j0 < 0 || r <= 0 || c <= 0 || i0+r > m.Rows || j0+c > m.Cols {
		panic("matrix: view out of range")
	}
	return &Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i0*m.Stride+j0:]}
}

// Clone returns a deep copy with compact stride.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.RowView(i), m.RowView(i))
	}
	return out
}

// CopyFrom copies src into m (dimensions must match).
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("matrix: CopyFrom dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.RowView(i), src.RowView(i))
	}
}

// Zero clears all elements.
func (m *Dense) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// EqualApprox reports element-wise equality within tol.
func (m *Dense) EqualApprox(other *Dense, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.RowView(i), other.RowView(i)
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var best float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			if a := math.Abs(v); a > best {
				best = a
			}
		}
	}
	return best
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Dense) FrobeniusNorm() float64 {
	var sum float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// Mul computes dst = a*b. dst must not alias a or b.
func Mul(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("matrix: Mul dimension mismatch")
	}
	dst.Zero()
	MulAdd(dst, a, b)
}

// MulAdd computes dst += a*b with cache-blocked loops parallelized over row
// bands. dst must not alias a or b.
func MulAdd(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("matrix: MulAdd dimension mismatch")
	}
	workers := runtime.NumCPU()
	if workers > dst.Rows {
		workers = dst.Rows
	}
	if workers < 1 {
		workers = 1
	}
	band := (dst.Rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * band
		hi := lo + band
		if hi > dst.Rows {
			hi = dst.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulAddRange(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulAddRange is an i-k-j kernel (streams b rows, accumulates into dst rows).
func mulAddRange(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.RowView(i)
		arow := a.RowView(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.RowView(k)
			for j := range drow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

// Add computes dst = a + b element-wise.
func Add(dst, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("matrix: Add dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		d, x, y := dst.RowView(i), a.RowView(i), b.RowView(i)
		for j := range d {
			d[j] = x[j] + y[j]
		}
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("matrix: Sub dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		d, x, y := dst.RowView(i), a.RowView(i), b.RowView(i)
		for j := range d {
			d[j] = x[j] - y[j]
		}
	}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] *= s
		}
	}
}
