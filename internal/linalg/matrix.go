// Package linalg provides the small dense linear-algebra kernel used by the
// SRAM failure-rate library: vectors, dense matrices, LU and Cholesky
// factorizations, and least-squares fitting.
//
// Everything is written against plain float64 slices so that callers (the
// circuit simulator's Newton loop, the covariance fitting in the two-stage
// Monte Carlo flow, the response-surface optimizer) pay no interface cost.
package linalg

import (
	"errors"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to zero, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("linalg: mulvec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and b; it panics if the shapes differ.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: shape mismatch")
	}
	d := 0.0
	for i, v := range m.Data {
		if a := math.Abs(v - b.Data[i]); a > d {
			d = a
		}
	}
	return d
}

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNotPositiveDefinite is returned by Cholesky when the input is not
// positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Scale multiplies every element of x by a, in place, and returns x.
func Scale(x []float64, a float64) []float64 {
	for i := range x {
		x[i] *= a
	}
	return x
}

// AXPY computes y += a*x in place and returns y.
func AXPY(y []float64, a float64, x []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: axpy length mismatch")
	}
	for i := range y {
		y[i] += a * x[i]
	}
	return y
}

// CopyVec returns a fresh copy of x.
func CopyVec(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
