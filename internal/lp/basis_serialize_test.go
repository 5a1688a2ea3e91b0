package lp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestBasisSerializeRoundTripAllReps is the serialization property
// test behind the cluster's portable warm sessions: a basis Exported
// from one instance and Imported into a *freshly built* instance over
// an equivalent problem — primed with PrimeWarm, exactly as a
// snapshot-rebuilt replica does it — must warm-start to the same
// optimum at 1e-9 with zero cold solves and zero cold fallbacks on the
// receiving instance. Producer and receiver each run either the
// eta-file LU replicas use or the dense inverse oracle, so every
// (from, to) pair is exercised.
func TestBasisSerializeRoundTripAllReps(t *testing.T) {
	reps := []struct {
		name string
		mk   func(*Problem) *Revised
	}{{"eta", NewRevised}, {"dense", newDenseRevised}}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(27000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		src := reps[seed%2].mk(p)
		sol, bas, err := src.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: source cold: %v", seed, err)
		}
		// Drive a few warm mutations so the exported basis is a
		// "lived-in" one (eta updates absorbed, at-upper statuses set),
		// not just the first cold optimum.
		for step := 0; step < 3; step++ {
			mutateProblem(rng, p)
			sol, bas, err = src.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d step %d: source warm: %v", seed, step, err)
			}
		}
		if sol.Status != Optimal {
			continue
		}

		cols, upper := bas.Export()
		// The exported form must be detached from the live basis.
		if len(cols) > 0 {
			cols2, upper2 := bas.Export()
			cols2[0] = -99
			if upper2 != nil && len(upper2) > 0 {
				upper2[0] = !upper2[0]
			}
			if cols[0] == -99 {
				t.Fatalf("seed %d: Export aliases internal state", seed)
			}
		}
		imported := ImportBasis(cols, upper)
		cols[0] = -7 // mutating the caller's buffers must not affect the import

		for _, rep := range reps {
			dst := rep.mk(p)
			dst.PrimeWarm()
			got, _, err := dst.SolveFrom(imported)
			if err != nil {
				t.Fatalf("seed %d rep %s: rebuilt warm: %v", seed, rep.name, err)
			}
			st := dst.Stats()
			if st.ColdSolves != 0 || st.ColdFallbacks != 0 {
				t.Fatalf("seed %d rep %s: rebuilt solve not warm: cold=%d fallbacks=%d",
					seed, rep.name, st.ColdSolves, st.ColdFallbacks)
			}
			if got.Status != Optimal {
				t.Fatalf("seed %d rep %s: rebuilt status %v, want Optimal", seed, rep.name, got.Status)
			}
			if d := math.Abs(got.Objective - sol.Objective); d > 1e-9*(1+math.Abs(sol.Objective)) {
				t.Fatalf("seed %d rep %s: rebuilt optimum %.12g vs source %.12g (diff %g)",
					seed, rep.name, got.Objective, sol.Objective, d)
			}
		}
	}
}

// TestImportBasisCorruptFallsBackCold pins the degradation contract:
// an imported basis that is damaged in transit (wrong length, out of
// range, duplicate columns) must not fail the solve — SolveFrom on a
// primed instance falls back to a correctness-preserving cold solve
// and counts the fallback.
func TestImportBasisCorruptFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(28000))
	p := randomBoundedProblem(rng, true)
	src := NewRevised(p)
	sol, bas, err := src.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("source cold: %v status %v", err, sol.Status)
	}
	cols, upper := bas.Export()
	corruptions := map[string]*Basis{
		"truncated":  ImportBasis(cols[:len(cols)-1], upper),
		"outOfRange": func() *Basis { c := append([]int(nil), cols...); c[0] = 1 << 30; return ImportBasis(c, upper) }(),
		"duplicate":  func() *Basis { c := append([]int(nil), cols...); c[len(c)-1] = c[0]; return ImportBasis(c, upper) }(),
	}
	for name, bad := range corruptions {
		dst := NewRevised(p)
		dst.PrimeWarm()
		got, _, err := dst.SolveFrom(bad)
		if err != nil {
			t.Fatalf("%s: solve failed hard: %v", name, err)
		}
		if got.Status != Optimal {
			t.Fatalf("%s: status %v, want Optimal via cold fallback", name, got.Status)
		}
		if d := math.Abs(got.Objective - sol.Objective); d > 1e-9*(1+math.Abs(sol.Objective)) {
			t.Fatalf("%s: optimum %.12g vs %.12g", name, got.Objective, sol.Objective)
		}
		if st := dst.Stats(); st.ColdSolves != 1 {
			t.Fatalf("%s: ColdSolves=%d, want 1 (fallback)", name, st.ColdSolves)
		}
	}
}

// encodeFuzzCols packs basis columns as little-endian int32s, the
// encoding FuzzImportBasis decodes its column input from.
func encodeFuzzCols(cols []int) []byte {
	out := make([]byte, 4*len(cols))
	for i, c := range cols {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(int32(c)))
	}
	return out
}

// FuzzImportBasis feeds arbitrary serialized bases — negative,
// out-of-range, duplicate or short column sets, at-upper vectors of
// any length — through ImportBasis → PrimeWarm → SolveFrom on a fixed
// problem, as a replica does with a snapshot off the wire. Whatever
// arrives, the solve must not panic or fail and must report the cold
// optimum's status and objective at 1e-9. Column bytes decode as
// little-endian int32s (a trailing partial word is dropped); each
// upper byte's low bit is one at-upper status, and an empty upper
// input imports as nil. The seeds are the three corruptions of
// TestImportBasisCorruptFallsBackCold plus the intact basis.
func FuzzImportBasis(f *testing.F) {
	rng := rand.New(rand.NewSource(28000))
	p := randomBoundedProblem(rng, true)
	want, bas, err := NewRevised(p).SolveFrom(nil)
	if err != nil || want.Status != Optimal {
		f.Fatalf("source cold: %v status %v", err, want.Status)
	}
	cols, upper := bas.Export()
	upperBytes := make([]byte, len(upper))
	for i, u := range upper {
		if u {
			upperBytes[i] = 1
		}
	}
	outOfRange := append([]int(nil), cols...)
	outOfRange[0] = 1 << 30
	duplicate := append([]int(nil), cols...)
	duplicate[len(duplicate)-1] = duplicate[0]
	for _, c := range [][]int{cols[:len(cols)-1], outOfRange, duplicate, cols} {
		f.Add(encodeFuzzCols(c), upperBytes)
	}

	f.Fuzz(func(t *testing.T, colBytes, upperIn []byte) {
		cols := make([]int, len(colBytes)/4)
		for i := range cols {
			cols[i] = int(int32(binary.LittleEndian.Uint32(colBytes[4*i:])))
		}
		var upper []bool
		if len(upperIn) > 0 {
			upper = make([]bool, len(upperIn))
			for i, b := range upperIn {
				upper[i] = b&1 == 1
			}
		}
		dst := NewRevised(p)
		dst.PrimeWarm()
		got, _, err := dst.SolveFrom(ImportBasis(cols, upper))
		if err != nil {
			t.Fatalf("solve failed hard: %v", err)
		}
		if got.Status != want.Status {
			t.Fatalf("status %v, cold optimum %v", got.Status, want.Status)
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-9*(1+math.Abs(want.Objective)) {
			t.Fatalf("optimum %.12g vs cold %.12g (diff %g)", got.Objective, want.Objective, d)
		}
	})
}
