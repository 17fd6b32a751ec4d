package linalg

import "math"

// LU holds an LU factorization with partial pivoting of a square matrix,
// PA = LU. It is the workhorse of the circuit simulator's Newton iteration.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of a (which is not modified).
// It returns ErrSingular when a pivot underflows.
func FactorLU(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := FactorInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto recomputes the factorization of a into f, reusing f's
// matrix and pivot storage when the capacity allows. It performs
// exactly the same floating-point operations as FactorLU — a solve
// through a reused factorization is bit-identical to one through a fresh
// allocation — which is what lets the batched Newton kernel keep one LU
// workspace across a whole batch of samples. a is not modified.
func FactorInto(f *LU, a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: LU of non-square matrix")
	}
	n := a.Rows
	if f.lu == nil || cap(f.lu.Data) < n*n {
		f.lu = a.Clone()
	} else {
		f.lu.Rows, f.lu.Cols = n, n
		f.lu.Data = f.lu.Data[:n*n]
		copy(f.lu.Data, a.Data)
	}
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest magnitude in column k.
		p, pmax := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > pmax {
				p, pmax = i, v
			}
		}
		//reprolint:ignore floateq an exactly-zero pivot column means structural singularity; rank-tolerance decisions belong to the caller
		if pmax == 0 || math.IsNaN(pmax) {
			return ErrSingular
		}
		if p != k {
			rp, rk := lu.Row(p), lu.Row(k)
			for j := 0; j < n; j++ {
				rp[j], rk[j] = rk[j], rp[j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			//reprolint:ignore floateq sparsity fast path: skipping an exactly-zero multiplier cannot change the elimination result
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A x = b for x using the factorization. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.lu.Rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A x = b into a caller-owned x, allocating nothing.
// The floating-point operations are identical to Solve's. x and b must
// not alias and must both have the factored dimension.
func (f *LU) SolveInto(x, b []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("linalg: LU solve length mismatch")
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}
