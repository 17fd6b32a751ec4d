package linalg

// RidgeLeastSquares solves min ‖A x − b‖² + ridge·‖x‖² through the normal
// equations (AᵀA + ridge·I) x = Aᵀb, factored by Cholesky with automatic
// jitter escalation.
func RidgeLeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.Rows != len(b) {
		panic("linalg: least-squares shape mismatch")
	}
	n := a.Cols
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i := 0; i < n; i++ {
			//reprolint:ignore floateq sparsity fast path: skipping exact zeros cannot change the accumulated sums
			if row[i] == 0 {
				continue
			}
			atb[i] += row[i] * b[r]
			for j := i; j < n; j++ {
				ata.Add(i, j, row[i]*row[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		ata.Add(i, i, ridge)
		for j := i + 1; j < n; j++ {
			ata.Set(j, i, ata.At(i, j))
		}
	}
	chol, _, err := FactorCholeskyRegularized(ata, 1e-12, 40)
	if err != nil {
		return nil, err
	}
	return chol.Solve(atb), nil
}
