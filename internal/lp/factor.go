package lp

// basisFactor is the seam between Revised and its basis
// factorization. Every instance runs the sparse LU with an eta file
// (luFactor, lu.go); the interface exists so tests can substitute the
// explicit dense inverse as the reference the LU is checked against.
// All vector arguments are dense slices of length m. The
// index convention follows the simplex state: the basis matrix B maps
// basis-position space to constraint-row space (column p of B is the
// effective column of r.basis[p]), so
//
//	ftran  solves B·x = v   (v indexed by row, result by position),
//	btran  solves Bᵀ·y = v  (v indexed by position, result by row),
//
// both in place.
type basisFactor interface {
	// refactor rebuilds the factorization from the instance's current
	// basis. It must leave the previous factorization intact when it
	// fails (returns false on a numerically singular basis), so the
	// caller can keep running on the old representation.
	refactor() bool
	// ftran solves B·x = v in place.
	ftran(v []float64)
	// ftranCol solves B·x = A_j for the effective column j, writing x
	// into dst (overwritten).
	ftranCol(j int, dst []float64)
	// btran solves Bᵀ·y = v in place.
	btran(v []float64)
	// btranRow writes row p of B⁻¹ (= eₚᵀB⁻¹, the vector the dual
	// simplex prices the leaving row with) into dst.
	btranRow(p int, dst []float64)
	// update absorbs the pivot that replaces position p's basis column
	// with the column whose FTRAN'd direction is d. With force=false
	// the representation may refuse an update it considers numerically
	// unsafe (returns false, state unchanged) — the caller then
	// refactorizes; force=true always applies.
	update(p int, d []float64, force bool) bool
	// shouldRefactor reports that the representation has degraded —
	// too many updates, or an eta file past its density budget —
	// and wants a rebuild at the next pivot boundary.
	shouldRefactor() bool
	// deferRefactor is called when a wanted refactorization found the
	// basis momentarily singular: back off so the next attempt happens
	// after another batch of updates rather than on every pivot.
	deferRefactor()
}
