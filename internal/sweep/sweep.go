// Package sweep holds the dense result matrix of a two-dimensional
// parameter sweep and the evenly spaced axes such sweeps run over.
package sweep

import "fmt"

// Matrix is a dense row-major result grid: Rows x Cols float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("sweep: matrix dimensions must be positive")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the value at (row, col).
func (m *Matrix) At(row, col int) float64 {
	m.check(row, col)
	return m.Data[row*m.Cols+col]
}

// Set stores v at (row, col).
func (m *Matrix) Set(row, col int, v float64) {
	m.check(row, col)
	m.Data[row*m.Cols+col] = v
}

func (m *Matrix) check(row, col int) {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("sweep: index (%d,%d) out of %dx%d", row, col, m.Rows, m.Cols))
	}
}

// MinMax returns the smallest and largest values in the matrix.
func (m *Matrix) MinMax() (lo, hi float64) {
	lo, hi = m.Data[0], m.Data[0]
	for _, v := range m.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		panic("sweep: Linspace needs n > 0")
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid FP drift at the endpoint
	return out
}
