package lp

import "math"

// denseFactor is the explicit dense basis inverse with product-form
// updates — the pre-LU representation, kept as the numerical
// reference. Every operation is O(m²).
type denseFactor struct {
	r       *Revised
	binv    [][]float64
	work    [][]float64 // refactorization workspace [B | I]
	tmp     []float64
	updates int
}

func newDenseFactor(r *Revised) *denseFactor {
	f := &denseFactor{r: r}
	f.binv = make([][]float64, r.m)
	for i := range f.binv {
		f.binv[i] = make([]float64, r.m)
	}
	f.tmp = make([]float64, r.m)
	return f
}

// refactor rebuilds binv from the current basis by Gauss-Jordan
// elimination with partial pivoting. Returns false when the basis
// matrix is numerically singular; binv is untouched in that case.
func (f *denseFactor) refactor() bool {
	m := f.r.m
	if f.work == nil {
		f.work = make([][]float64, m)
		for i := range f.work {
			f.work[i] = make([]float64, 2*m)
		}
	}
	work := f.work
	for i := 0; i < m; i++ {
		rowi := work[i]
		for t := range rowi {
			rowi[t] = 0
		}
		rowi[m+i] = 1
	}
	for k, j := range f.r.basis {
		f.r.effCol(j, func(i int, v float64) {
			work[i][k] = v
		})
	}
	for col := 0; col < m; col++ {
		piv, pivAbs := col, math.Abs(work[col][col])
		for i := col + 1; i < m; i++ {
			if a := math.Abs(work[i][col]); a > pivAbs {
				piv, pivAbs = i, a
			}
		}
		if pivAbs < 1e-11 {
			return false
		}
		work[col], work[piv] = work[piv], work[col]
		inv := 1 / work[col][col]
		rowc := work[col]
		for t := col; t < 2*m; t++ {
			rowc[t] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			fac := work[i][col]
			if fac == 0 {
				continue
			}
			rowi := work[i]
			for t := col; t < 2*m; t++ {
				rowi[t] -= fac * rowc[t]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(f.binv[i], work[i][m:])
	}
	f.updates = 0
	return true
}

func (f *denseFactor) ftran(v []float64) {
	m, tmp := f.r.m, f.tmp
	for i := 0; i < m; i++ {
		s := 0.0
		row := f.binv[i]
		for t := 0; t < m; t++ {
			s += row[t] * v[t]
		}
		tmp[i] = s
	}
	copy(v, tmp)
}

func (f *denseFactor) ftranCol(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	m := f.r.m
	f.r.effCol(j, func(row int, v float64) {
		for i := 0; i < m; i++ {
			dst[i] += f.binv[i][row] * v
		}
	})
}

func (f *denseFactor) btran(v []float64) {
	m, tmp := f.r.m, f.tmp
	for t := 0; t < m; t++ {
		tmp[t] = 0
	}
	for i := 0; i < m; i++ {
		c := v[i]
		if c == 0 {
			continue
		}
		row := f.binv[i]
		for t := 0; t < m; t++ {
			tmp[t] += c * row[t]
		}
	}
	copy(v, tmp)
}

func (f *denseFactor) btranRow(p int, dst []float64) {
	copy(dst, f.binv[p])
}

// update applies the product-form inverse update for the pivot in
// position p with direction d. The dense representation never refuses
// an update (force is ignored): the ratio tests guarantee |d_p| above
// pivot tolerance, which is all the explicit inverse needs.
func (f *denseFactor) update(p int, d []float64, force bool) bool {
	_ = force
	m := f.r.m
	inv := 1 / d[p]
	rowP := f.binv[p]
	for t := 0; t < m; t++ {
		rowP[t] *= inv
	}
	for i := 0; i < m; i++ {
		if i == p {
			continue
		}
		fac := d[i]
		if fac == 0 {
			continue
		}
		rowi := f.binv[i]
		for t := 0; t < m; t++ {
			rowi[t] -= fac * rowP[t]
		}
	}
	f.updates++
	return true
}

// refactorEvery bounds error accumulation in the product-form updates
// of the dense inverse.
const refactorEvery = 100

func (f *denseFactor) shouldRefactor() bool { return f.updates >= refactorEvery }
func (f *denseFactor) deferRefactor()       { f.updates = 0 }

// newDenseRevised is NewRevised with the eta-file LU swapped for the
// dense explicit inverse: the independent reference the cross-check
// tests solve the same problems against.
func newDenseRevised(p *Problem) *Revised {
	r := NewRevised(p)
	r.fac = newDenseFactor(r)
	return r
}
