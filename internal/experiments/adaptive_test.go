package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
)

func TestAdaptiveSweepExact(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 2, Ks: []int{4}}
	pts, err := AdaptiveSweep(opts, 4, AdaptiveExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	pt := pts[0]
	if pt.K != 4 || pt.Platforms != 2 || pt.Epochs != 4 || pt.Mode != AdaptiveExact {
		t.Fatalf("bad point %+v", pt)
	}
	if pt.ColdSeconds <= 0 || pt.WarmSeconds <= 0 {
		t.Fatalf("non-positive timings %+v", pt)
	}
	// With no budget exhaustion both loops prove the same optima.
	if pt.BudgetHits == 0 && !(pt.MaxObjDiff <= 1e-9) {
		t.Fatalf("warm-cold objective gap %g", pt.MaxObjDiff)
	}
	table := RenderAdaptiveTable(pts)
	if !strings.Contains(table, "speedup") || !strings.Contains(table, "BnB") {
		t.Fatalf("bad table:\n%s", table)
	}
	csv := RenderAdaptiveCSV(pts)
	if !strings.HasPrefix(csv, "k,platforms,epochs,mode,") {
		t.Fatalf("bad csv:\n%s", csv)
	}
}

func TestAdaptiveSweepLPRG(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 1, Ks: []int{6}}
	pts, err := AdaptiveSweep(opts, 4, AdaptiveLPRG)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Mode != AdaptiveLPRG || pts[0].ColdSeconds <= 0 || pts[0].WarmSeconds <= 0 {
		t.Fatalf("bad point %+v", pts[0])
	}
	if !strings.Contains(RenderAdaptiveTable(pts), "LPRG") {
		t.Fatal("table missing mode")
	}
}

func TestAdaptiveSweepErrors(t *testing.T) {
	if _, err := AdaptiveSweep(Options{Ks: []int{4}, PlatformsPer: 1}, 0, AdaptiveExact); err == nil {
		t.Fatal("zero epochs must fail")
	}
	if _, err := AdaptiveSweep(Options{Ks: []int{4}, PlatformsPer: 1}, 2, AdaptiveMode(99)); err == nil {
		t.Fatal("unknown mode must fail")
	}
}

// TestAdaptivePointJSON pins the machine-readable BENCH_E*.json
// surface: NaN MaxObjDiff (LPRG rows) must serialize as null instead
// of breaking the encoder, and the mode must appear by name.
func TestAdaptivePointJSON(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 1, Ks: []int{4}}
	pts, err := AdaptiveSweep(opts, 2, AdaptiveLPRG)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pts)
	if err != nil {
		t.Fatalf("LPRG adaptive points must marshal (NaN handling): %v", err)
	}
	s := string(data)
	if !strings.Contains(s, `"MaxObjDiff":null`) {
		t.Fatalf("NaN MaxObjDiff should marshal as null: %s", s)
	}
	if !strings.Contains(s, `"Mode":"LPRG"`) {
		t.Fatalf("mode should marshal by name: %s", s)
	}
	if !strings.Contains(s, `"WarmPivots":`) {
		t.Fatalf("solver stats missing from JSON: %s", s)
	}
}

// TestE14RefactorRegression is the refactorization guard on the warm
// epoch loop schedd runs: on the K=30 instance set of the retired
// E13/E14 sweeps (same seed/salt, 3 platforms, 20 warm LPRG epochs)
// core.Model's eta-file LU measured 314 refactorizations in
// BENCH_E13.json and 255 after the E14 pricing and ratio-test work
// (exact dual steepest edge, bound flipping). The total must stay
// below the first figure, pivots must far outnumber rebuilds (updates
// are absorbed into the eta file, not rebuilt per pivot), and the
// warm loops must never abandon a restart into a cold fallback.
func TestE14RefactorRegression(t *testing.T) {
	const (
		k         = 30
		platforms = 3
		epochs    = 20
		etaBase   = 314 // E13 measured eta-file refactorizations at K=30
	)
	var total lp.Stats
	for i := 0; i < platforms; i++ {
		rng := subRNG(1, k, i, saltLU) // E13's platform stream, verbatim
		pr, err := adaptiveProblem(k, rng)
		if err != nil {
			t.Fatal(err)
		}
		model := AdaptiveLoadModel(pr, rng.Int63())
		cm, err := pr.NewModel(core.SUM)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := adapt.RunWarmOn(cm, pr, heuristics.LPRGOnModel, model, core.SUM, epochs); err != nil {
			t.Fatal(err)
		}
		total.Add(cm.SolverStats())
	}
	t.Logf("K=%d: %d refactorizations (bound %d), %d pivots, %d cold fallbacks",
		k, total.Refactorizations, etaBase, total.Pivots, total.ColdFallbacks)
	if total.Refactorizations >= etaBase {
		t.Fatalf("refactorizations %d have regressed to the E13 baseline %d",
			total.Refactorizations, etaBase)
	}
	if total.ColdFallbacks != 0 {
		t.Fatalf("warm loop fell back cold %d times", total.ColdFallbacks)
	}
	if total.Pivots <= total.Refactorizations {
		t.Fatalf("pivot-vs-refactor ratio below 1 (%d pivots, %d refactorizations): updates are not being absorbed",
			total.Pivots, total.Refactorizations)
	}
}
