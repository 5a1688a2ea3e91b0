package lp

import (
	"math"
	"math/rand"
	"testing"
)

// denseBasisMatrix assembles the current basis matrix B (rows =
// constraint rows, columns = basis positions) from the instance's
// effective columns — the ground truth the factorization tests check
// FTRAN/BTRAN against.
func denseBasisMatrix(r *Revised) [][]float64 {
	B := make([][]float64, r.m)
	for i := range B {
		B[i] = make([]float64, r.m)
	}
	for p, col := range r.basis {
		r.effCol(col, func(i int, v float64) {
			B[i][p] += v
		})
	}
	return B
}

// checkFactorSolves verifies B·ftran(v) == v and Bᵀ·btran(v) == v for
// random vectors against the dense basis matrix.
func checkFactorSolves(t *testing.T, r *Revised, rng *rand.Rand, label string) {
	t.Helper()
	m := r.m
	if m == 0 {
		return
	}
	B := denseBasisMatrix(r)
	v := make([]float64, m)
	x := make([]float64, m)
	for trial := 0; trial < 3; trial++ {
		norm := 0.0
		for i := range v {
			v[i] = rng.NormFloat64()
			if a := math.Abs(v[i]); a > norm {
				norm = a
			}
		}
		tol := 1e-6 * (1 + norm)
		copy(x, v)
		r.fac.ftran(x)
		for i := 0; i < m; i++ {
			s := 0.0
			for p := 0; p < m; p++ {
				s += B[i][p] * x[p]
			}
			if math.Abs(s-v[i]) > tol {
				t.Fatalf("%s: FTRAN residual %g at row %d (m=%d)", label, s-v[i], i, m)
			}
		}
		copy(x, v)
		r.fac.btran(x)
		for p := 0; p < m; p++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += B[i][p] * x[i]
			}
			if math.Abs(s-v[p]) > tol {
				t.Fatalf("%s: BTRAN residual %g at position %d (m=%d)", label, s-v[p], p, m)
			}
		}
	}
}

// TestLUFactorSolvesRandom pins the LU factorization itself: after
// cold solves and after warm re-solves (which grow the eta file), the
// factored FTRAN/BTRAN must invert the current basis matrix.
func TestLUFactorSolvesRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		sol, bas, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: cold solve: %v", seed, err)
		}
		if sol.Status == Optimal {
			checkFactorSolves(t, r, rng, "cold")
		}
		// Mutate and warm-restart a few times to push etas through the
		// factor, re-checking the inverse property each round.
		for step := 0; step < 4; step++ {
			mutateProblem(rng, p)
			sol, bas, err = r.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d step %d: warm solve: %v", seed, step, err)
			}
			if sol.Status == Optimal {
				checkFactorSolves(t, r, rng, "warm")
			}
		}
	}
}

// mutateProblem applies a random warm-start-legal mutation batch:
// right-hand side perturbations and variable-bound rewrites (always
// keeping 0 <= lb <= ub so the mutation itself is valid; the program
// may well become infeasible, which both backends must then agree
// on).
func mutateProblem(rng *rand.Rand, p *Problem) {
	for i := range p.rows {
		if rng.Float64() < 0.4 {
			p.SetRHS(i, p.rows[i].rhs+rng.NormFloat64()*2)
		}
	}
	for j := 0; j < p.nvars; j++ {
		if rng.Float64() < 0.3 {
			lb := rng.Float64() * 2
			ub := lb + rng.Float64()*4
			switch rng.Intn(4) {
			case 0:
				ub = lb // fix the variable
			case 1:
				ub = math.Inf(1)
			}
			p.SetVarBounds(j, lb, ub)
		}
	}
}

// agreeStatus requires the two backends to reach the same verdict and
// (when optimal) the same objective to 1e-9.
func agreeStatus(t *testing.T, lu, di Solution, seed int64, step int) {
	t.Helper()
	if lu.Status != di.Status {
		t.Fatalf("seed %d step %d: LU/eta %v vs dense inverse %v", seed, step, lu.Status, di.Status)
	}
	if lu.Status != Optimal {
		return
	}
	if d := math.Abs(lu.Objective - di.Objective); d > objTol(di.Objective) {
		t.Fatalf("seed %d step %d: LU/eta objective %.12g vs dense inverse %.12g (diff %g)",
			seed, step, lu.Objective, di.Objective, d)
	}
}

// TestLUMatchesDenseInverseCold: the LU/eta backend and the explicit
// dense inverse must agree on randomized bounded problems solved
// cold.
func TestLUMatchesDenseInverseCold(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(8000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		lu, _, err := NewRevised(p).SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: LU: %v", seed, err)
		}
		di, _, err := newDenseRevised(p).SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: dense inverse: %v", seed, err)
		}
		agreeStatus(t, lu, di, seed, -1)
	}
}

// TestLUMatchesDenseInverseWarmMutations drives the same RHS/bound
// mutation sequence through both backends with per-step warm
// restarts, requiring equal verdicts and optima at every step. On
// odd steps the backends warm-start from each other's basis
// snapshots, pinning that a Basis round-trips through either
// representation.
func TestLUMatchesDenseInverseWarmMutations(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		rLU := NewRevised(p)
		rDI := newDenseRevised(p)
		lu, basLU, err := rLU.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: LU cold: %v", seed, err)
		}
		di, basDI, err := rDI.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: dense cold: %v", seed, err)
		}
		agreeStatus(t, lu, di, seed, -1)
		for step := 0; step < 8; step++ {
			mutateProblem(rng, p)
			fromLU, fromDI := basLU, basDI
			if step%2 == 1 {
				fromLU, fromDI = basDI, basLU // cross-representation restart
			}
			lu, basLU, err = rLU.SolveFrom(fromLU)
			if err != nil {
				t.Fatalf("seed %d step %d: LU warm: %v", seed, step, err)
			}
			di, basDI, err = rDI.SolveFrom(fromDI)
			if err != nil {
				t.Fatalf("seed %d step %d: dense warm: %v", seed, step, err)
			}
			agreeStatus(t, lu, di, seed, step)
		}
	}
}

// TestWarmPivotBudgetScales pins the satellite contract: the dual
// restart's pivot budget grows with the basis dimension and with the
// matrix nonzeros instead of being a flat constant, and keeps a
// floor for tiny instances.
func TestWarmPivotBudgetScales(t *testing.T) {
	sparse2 := New(2)
	sparse2.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 1)
	sparse2.AddConstraint([]Term{{Var: 1, Coeff: 1}}, LE, 1)
	rSmall := NewRevised(sparse2)

	dense2 := New(6)
	terms := make([]Term, 6)
	for j := range terms {
		terms[j] = Term{Var: j, Coeff: float64(j + 1)}
	}
	dense2.AddConstraint(terms, LE, 10)
	dense2.AddConstraint(terms, GE, 1)
	rDenser := NewRevised(dense2)

	tall := New(2)
	for i := 0; i < 40; i++ {
		tall.AddConstraint([]Term{{Var: i % 2, Coeff: 1}}, LE, float64(i+1))
	}
	rTall := NewRevised(tall)

	small, denser, tallB := rSmall.warmPivotBudget(), rDenser.warmPivotBudget(), rTall.warmPivotBudget()
	if small < 256 {
		t.Fatalf("budget floor violated: %d", small)
	}
	if denser <= small {
		t.Fatalf("budget must grow with nonzeros: %d (nnz=%d) vs %d (nnz=%d)",
			denser, len(rDenser.sp.val), small, len(rSmall.sp.val))
	}
	if tallB <= small {
		t.Fatalf("budget must grow with basis dimension: %d (m=%d) vs %d (m=%d)",
			tallB, rTall.m, small, rSmall.m)
	}
	// And the budget is what the dual simplex actually runs under: a
	// fresh instance must report it consistently with its inputs.
	if want := 4*rTall.m + len(rTall.sp.val)/2 + 256; tallB != want {
		t.Fatalf("budget %d does not track size/nonzeros (want %d)", tallB, want)
	}
	// budgetOverride is the test hook that forces the fallback path.
	rTall.budgetOverride = 3
	if got := rTall.warmPivotBudget(); got != 3 {
		t.Fatalf("budgetOverride ignored: %d", got)
	}
}

// TestLUStatsCounters sanity-checks the Stats surface: a cold solve
// counts as such, warm restarts and refactorizations register,
// ResetStats zeroes everything, and steepest-edge weight resets
// register whenever the dual runs.
func TestLUStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	p := randomBoundedProblem(rng, false)
	r := NewRevised(p)
	if _, bas, err := r.SolveFrom(nil); err != nil {
		t.Fatal(err)
	} else {
		st := r.Stats()
		if st.ColdSolves != 1 {
			t.Fatalf("ColdSolves = %d after one cold solve", st.ColdSolves)
		}
		if st.Refactorizations == 0 {
			t.Fatal("cold solve must refactorize at least once")
		}
		mutateProblem(rng, p)
		if _, _, err := r.SolveFrom(bas); err != nil {
			t.Fatal(err)
		}
		st = r.Stats()
		if st.WarmSolves+st.ColdFallbacks == 0 {
			t.Fatal("warm restart must count as WarmSolves or ColdFallbacks")
		}
	}
	r.ResetStats()
	if r.Stats() != (Stats{}) {
		t.Fatalf("ResetStats left %+v", r.Stats())
	}

	// Steepest-edge weights must be initialized whenever the dual runs,
	// and Stats.Add sums that counter.
	sawDual := false
	for seed := 0; seed < 20; seed++ {
		p := randomBoundedProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		_, bas, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			mutateProblem(rng, p)
			if _, bas, err = r.SolveFrom(bas); err != nil {
				t.Fatal(err)
			}
		}
		if st := r.Stats(); st.DualPivots > 0 {
			sawDual = true
			if st.DSEWeightResets == 0 {
				t.Fatalf("seed %d: dual ran (%d pivots) but weights were never initialized", seed, st.DualPivots)
			}
		}
	}
	if !sawDual {
		t.Fatal("no solve exercised the dual simplex")
	}
	var sum Stats
	sum.Add(Stats{DSEWeightResets: 1})
	sum.Add(Stats{DSEWeightResets: 2})
	if sum.DSEWeightResets != 3 {
		t.Fatalf("Stats.Add mishandled DSEWeightResets: %+v", sum)
	}
}

// TestBasisRoundTripsAllReps rotates one mutation sequence's basis
// snapshots through three instances — two eta-file LUs and the dense
// inverse oracle — so every warm restart installs a snapshot another
// instance produced, and requires all three to agree with the oracle
// at every step.
func TestBasisRoundTripsAllReps(t *testing.T) {
	reps := []struct {
		name string
		mk   func(*Problem) *Revised
	}{{"eta", NewRevised}, {"dense", newDenseRevised}, {"eta2", NewRevised}}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(21000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		rs := make([]*Revised, len(reps))
		bases := make([]*Basis, len(reps))
		sols := make([]Solution, len(reps))
		for k, rep := range reps {
			rs[k] = rep.mk(p)
			var err error
			sols[k], bases[k], err = rs[k].SolveFrom(nil)
			if err != nil {
				t.Fatalf("seed %d: %s cold: %v", seed, rep.name, err)
			}
		}
		agreeStatus(t, sols[0], sols[1], seed, -1)
		agreeStatus(t, sols[2], sols[1], seed, -1)
		for step := 0; step < 6; step++ {
			mutateProblem(rng, p)
			// Each instance restarts from the snapshot its neighbor
			// produced last step.
			prev := []*Basis{bases[1], bases[2], bases[0]}
			for k, rep := range reps {
				var err error
				sols[k], bases[k], err = rs[k].SolveFrom(prev[k])
				if err != nil {
					t.Fatalf("seed %d step %d: %s warm: %v", seed, step, rep.name, err)
				}
			}
			agreeStatus(t, sols[0], sols[1], seed, step)
			agreeStatus(t, sols[2], sols[1], seed, step)
		}
	}
}

// TestFTPricingVariantsAgree pins that the pricing/ratio-test options
// of the eta-file LU instance are pure performance knobs: exact steepest edge with bound-flipping,
// steepest edge alone, and the devex fallback must reach the same
// verdicts and optima across a warm mutation sequence.
func TestFTPricingVariantsAgree(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(25000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		mk := func(dse, bfrt bool) *Revised {
			r := NewRevised(p)
			r.useDSE, r.bfrt = dse, bfrt
			return r
		}
		rs := []*Revised{mk(true, true), mk(true, false), mk(false, false)}
		bases := make([]*Basis, len(rs))
		sols := make([]Solution, len(rs))
		for k, r := range rs {
			var err error
			sols[k], bases[k], err = r.SolveFrom(nil)
			if err != nil {
				t.Fatalf("seed %d variant %d: cold: %v", seed, k, err)
			}
		}
		agreeStatus(t, sols[1], sols[0], seed, -1)
		agreeStatus(t, sols[2], sols[0], seed, -1)
		for step := 0; step < 6; step++ {
			mutateProblem(rng, p)
			for k, r := range rs {
				var err error
				sols[k], bases[k], err = r.SolveFrom(bases[k])
				if err != nil {
					t.Fatalf("seed %d variant %d step %d: warm: %v", seed, k, step, err)
				}
			}
			agreeStatus(t, sols[1], sols[0], seed, step)
			agreeStatus(t, sols[2], sols[0], seed, step)
		}
	}
}

// TestStaleBasisDegradesToColdFallback pins the warm-restart safety
// contract under the recalibrated budget: when the pivot budget is
// forced so low that no dual restart can finish, every solve must
// degrade into the cold fallback — counted as such — and still return
// the same answer the dense reference produces. A stale basis may
// cost time, never correctness.
func TestStaleBasisDegradesToColdFallback(t *testing.T) {
	fallbacks := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(27000 + seed))
		p := randomBoundedProblem(rng, true)
		r := NewRevised(p)
		r.budgetOverride = 1 // no useful dual restart fits in one pivot
		sol, bas, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		for step := 0; step < 5; step++ {
			// Large mutations guarantee real dual work, so the budget of
			// one pivot cannot complete a restart that needs any.
			for i := range p.rows {
				p.SetRHS(i, p.rows[i].rhs+rng.NormFloat64()*20)
			}
			sol, bas, err = r.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			di, _, err := newDenseRevised(p).SolveFrom(nil)
			if err != nil {
				t.Fatalf("seed %d step %d: dense: %v", seed, step, err)
			}
			agreeStatus(t, sol, di, seed, step)
		}
		fallbacks += r.Stats().ColdFallbacks
	}
	// A mutation that happens to leave the basis primal feasible needs
	// no dual pivot and legitimately avoids the fallback; across 40
	// seeds of ±20 RHS shocks, restarts that DO need work must have
	// tripped the one-pivot budget into the cold path many times.
	if fallbacks < 20 {
		t.Fatalf("budget of 1 pivot produced only %d cold fallbacks across all seeds", fallbacks)
	}
}
