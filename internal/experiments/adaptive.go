package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/platgen"
)

// AdaptiveMode selects the epoch solver of the E11 warm-vs-cold
// sweep.
type AdaptiveMode int

const (
	// AdaptiveExact re-optimizes every epoch with the exact
	// branch-and-bound solver. Both loops prove the same optimum, so
	// the sweep verifies warm-start soundness (MaxObjDiff ≈ 0) while
	// timing it; practical for K up to ~6-8.
	AdaptiveExact AdaptiveMode = iota
	// AdaptiveLPRG re-optimizes with the polynomial LPRG heuristic —
	// the §1 scenario at larger K. Warm and cold runs may land on
	// different (equally valid) rounded allocations, so only the
	// timing comparison is meaningful.
	AdaptiveLPRG
)

func (m AdaptiveMode) String() string {
	if m == AdaptiveLPRG {
		return "LPRG"
	}
	return "BnB"
}

// AdaptivePoint is one K value of the E11 sweep: the wall-clock cost
// of adapt's epoch loop with a cold per-epoch LP rebuild versus the
// persistent warm-started model, plus the warm run's adaptive gain.
type AdaptivePoint struct {
	K         int
	Platforms int
	Epochs    int
	Mode      AdaptiveMode
	// Mean wall-clock seconds per full epoch run (epochs solves).
	ColdSeconds float64
	WarmSeconds float64
	// Speedup is ColdSeconds / WarmSeconds.
	Speedup float64
	// MaxObjDiff is the largest relative |warm − cold| gap over all
	// epochs and platforms (exact mode only; NaN for LPRG).
	MaxObjDiff float64
	// MeanGain is the warm run's mean adaptive-over-static gain.
	MeanGain float64
	// BudgetHits counts branch-and-bound node-budget exhaustions
	// summed over BOTH loops (cold and warm, nominal solves
	// included) — solves where optimality was not proven. Any
	// non-zero value voids the warm-vs-cold comparison, so
	// MaxObjDiff is reported only for platforms with zero hits.
	BudgetHits int
	// Solver statistics of the warm loop's persistent model, summed
	// over platforms: simplex pivots, basis refactorizations,
	// pivot-free bound flips and warm restarts abandoned into cold
	// fallbacks — the per-solve cost drivers behind WarmSeconds.
	WarmPivots        int
	WarmRefactors     int
	WarmBoundFlips    int
	WarmColdFallbacks int
	// WarmPhase splits the warm loop's solver wall time by simplex
	// phase, summed over platforms. Wall-clock measurements: they vary
	// run to run, unlike the counters above.
	WarmPhase lp.PhaseTimes
}

// MarshalJSON renders the point with MaxObjDiff as null when it is
// NaN (LPRG mode has no warm-vs-cold equality to report), since JSON
// has no NaN literal.
func (p AdaptivePoint) MarshalJSON() ([]byte, error) {
	type alias AdaptivePoint
	out := struct {
		alias
		MaxObjDiff *float64
	}{alias: alias(p)}
	if !math.IsNaN(p.MaxObjDiff) {
		v := p.MaxObjDiff
		out.MaxObjDiff = &v
	}
	return json.Marshal(out)
}

// MarshalJSON reports the mode by name ("BnB"/"LPRG") instead of its
// internal enum value.
func (m AdaptiveMode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

const saltAdaptive = 4

// saltLU is the platform stream of the retired E13/E14 representation
// sweeps, kept because the E14 refactorization guard replays exactly
// that instance set against the bound BENCH_E13.json measured.
const saltLU = 7

// adaptiveProblem draws a network-bound platform (tight budgets and
// bandwidths, non-uniform payoffs) — the regime where per-epoch
// re-optimization actually re-routes connections and the LP work
// dominates, so warm-vs-cold differences are visible.
func adaptiveProblem(k int, rng *rand.Rand) (*core.Problem, error) {
	params := platgen.Params{
		K:             k,
		Connectivity:  0.6,
		Heterogeneity: 0.6,
		MeanG:         450,
		MeanBW:        10,
		MeanMaxCon:    5,
	}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		return nil, err
	}
	pr := core.NewProblem(pl)
	for i := range pr.Payoffs {
		pr.Payoffs[i] = float64(1 + i%3)
	}
	return pr, nil
}

// AdaptiveLoadModel is the perturbation sequence of the E11/E12
// sweeps and of the root BenchmarkE11_*/E12_* benchmarks (shared so
// the sweep and the benchmarks always measure the same workload):
// uniform gateway load plus a mild uniform squeeze on every backbone
// link budget, so the warm path exercises the full capacity-
// injection surface (speeds, gateways and link budgets → natural β
// bound updates) every epoch. Linkless platforms get gateway
// modulation only.
func AdaptiveLoadModel(pr *core.Problem, seed int64) adapt.UniformLoadModel {
	m := adapt.UniformLoadModel{K: pr.K(), Min: 0.4, Max: 1.0, Seed: seed}
	if links := len(pr.Platform.Links); links > 0 {
		m.Links, m.LinkMin, m.LinkMax = links, 0.7, 1.0
	}
	return m
}

// AdaptiveSweep runs the E11 comparison: for every K it drives the
// same perturbation sequence through adapt.Run (cold: every epoch
// rebuilds and cold-solves its LPs) and adapt.RunWarm (one
// persistent core.Model, capacity and bound mutations only, basis
// reuse across epochs) and reports mean wall-clock seconds and the
// speedup. Like Figure7 it measures time, so platforms run
// sequentially unless opts.Workers explicitly asks for parallelism
// (which contends for cores and inflates both sides).
func AdaptiveSweep(opts Options, epochs int, mode AdaptiveMode) ([]AdaptivePoint, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("experiments: epochs = %d, want >= 1", epochs)
	}
	const maxNodes = 4000
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	type sample struct {
		coldSecs, warmSecs float64
		maxDiff            float64
		gain               float64
		budgetHits         int
		stats              lp.Stats
	}
	var out []AdaptivePoint
	for _, k := range opts.Ks {
		samples := make([]sample, opts.PlatformsPer)
		err := forEach(workers, opts.PlatformsPer, func(i int) error {
			rng := subRNG(opts.Seed, k, i, saltAdaptive)
			pr, err := adaptiveProblem(k, rng)
			if err != nil {
				return err
			}
			obj := core.SUM
			model := AdaptiveLoadModel(pr, rng.Int63())
			var s sample

			var warm []adapt.EpochResult
			switch mode {
			case AdaptiveExact:
				var cold []adapt.EpochResult
				coldSolve := func(p *core.Problem) (*core.Allocation, error) {
					a, _, err := heuristics.BranchAndBound(p, obj, maxNodes)
					if errors.Is(err, heuristics.ErrNodeBudget) {
						s.budgetHits++
						err = nil
					}
					return a, err
				}
				start := time.Now()
				cold, err = adapt.Run(pr, coldSolve, model, obj, epochs)
				if err != nil {
					return fmt.Errorf("experiments: cold adaptive K=%d: %w", k, err)
				}
				s.coldSecs = time.Since(start).Seconds()

				// The one-time model build stays inside the warm timed
				// region — the PR 1..3 measurement protocol (RunWarm
				// built the model itself), kept so the speedup column
				// stays comparable across PRs.
				start = time.Now()
				cm, err := pr.NewModel(obj)
				if err != nil {
					return err
				}
				warm, err = adapt.RunWarmOn(cm, pr, adapt.WarmBnBBudgetTolerant(maxNodes, &s.budgetHits), model, obj, epochs)
				if err != nil {
					return fmt.Errorf("experiments: warm adaptive K=%d: %w", k, err)
				}
				s.warmSecs = time.Since(start).Seconds()
				s.stats = cm.SolverStats()
				// A budget-exhausted sample proved no optima, so it has
				// no warm-vs-cold gap to report.
				s.maxDiff = math.NaN()
				if s.budgetHits == 0 {
					s.maxDiff = 0
					for e := range warm {
						d := math.Abs(warm[e].Adaptive-cold[e].Adaptive) / (1 + math.Abs(cold[e].Adaptive))
						if d > s.maxDiff {
							s.maxDiff = d
						}
					}
				}
			case AdaptiveLPRG:
				// The cold baseline rebuilds the same explicit (α, β)
				// model every epoch and cold-solves it — the pre-engine
				// behavior — so the measured delta is exactly what the
				// persistent warm-started model saves.
				coldSolve := func(p *core.Problem) (*core.Allocation, error) {
					m, err := p.NewModel(obj)
					if err != nil {
						return nil, err
					}
					a, _, err := heuristics.LPRGOnModel(m, p, obj, nil)
					return a, err
				}
				start := time.Now()
				if _, err = adapt.Run(pr, coldSolve, model, obj, epochs); err != nil {
					return fmt.Errorf("experiments: cold adaptive K=%d: %w", k, err)
				}
				s.coldSecs = time.Since(start).Seconds()
				// Model build inside the timed region, as above.
				start = time.Now()
				cm, err := pr.NewModel(obj)
				if err != nil {
					return err
				}
				warm, err = adapt.RunWarmOn(cm, pr, adapt.WarmLPRG(), model, obj, epochs)
				if err != nil {
					return fmt.Errorf("experiments: warm adaptive K=%d: %w", k, err)
				}
				s.warmSecs = time.Since(start).Seconds()
				s.stats = cm.SolverStats()
				s.maxDiff = math.NaN()
			default:
				return fmt.Errorf("experiments: unknown adaptive mode %d", int(mode))
			}
			s.gain = adapt.Summarize(warm).Gain
			samples[i] = s
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt := AdaptivePoint{K: k, Epochs: epochs, Mode: mode, MaxObjDiff: math.NaN()}
		for _, s := range samples {
			pt.Platforms++
			pt.ColdSeconds += s.coldSecs
			pt.WarmSeconds += s.warmSecs
			pt.BudgetHits += s.budgetHits
			pt.MeanGain += s.gain
			pt.WarmPivots += s.stats.Pivots
			pt.WarmRefactors += s.stats.Refactorizations
			pt.WarmBoundFlips += s.stats.BoundFlips
			pt.WarmColdFallbacks += s.stats.ColdFallbacks
			pt.WarmPhase.Add(s.stats.Phase)
			if mode == AdaptiveExact && !math.IsNaN(s.maxDiff) &&
				(math.IsNaN(pt.MaxObjDiff) || s.maxDiff > pt.MaxObjDiff) {
				pt.MaxObjDiff = s.maxDiff
			}
		}
		if pt.Platforms > 0 {
			pt.ColdSeconds /= float64(pt.Platforms)
			pt.WarmSeconds /= float64(pt.Platforms)
			pt.MeanGain /= float64(pt.Platforms)
		}
		if pt.WarmSeconds > 0 {
			pt.Speedup = pt.ColdSeconds / pt.WarmSeconds
		}
		out = append(out, pt)
	}
	return out, nil
}
