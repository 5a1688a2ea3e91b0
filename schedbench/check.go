package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/service"
)

// relTol is the agreement every numeric check demands: what-ifs
// within 1e-9 of a fresh solve, batch answers within 1e-9 of single
// answers.
const relTol = 1e-9

// perSession and perKind bound how many answers of each kind the slow
// checks verify: the first perSession per session, perKind in all.
const (
	perSession = 2
	perKind    = 6
)

func close9(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ledger records every acknowledged commit by the epoch it produced,
// so the platform any answer was computed on can be rebuilt exactly.
type ledger struct {
	mu     sync.Mutex
	epochs []map[int]*service.EpochRequest
}

func newLedger(n int) *ledger {
	l := &ledger{epochs: make([]map[int]*service.EpochRequest, n)}
	for i := range l.epochs {
		l.epochs[i] = make(map[int]*service.EpochRequest)
	}
	return l
}

func (l *ledger) commit(s, epoch int, req *service.EpochRequest) {
	l.mu.Lock()
	l.epochs[s][epoch] = req
	l.mu.Unlock()
}

func (l *ledger) acked(s int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.epochs[s])
}

// platformAt replays commits 1..epoch on the session's platform with
// the server's own perturbation code, so the result is bit-identical
// to the server's drifted platform.
func (l *ledger) platformAt(base *platform.Platform, s, epoch int) (*platform.Platform, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pl := base
	for e := 1; e <= epoch; e++ {
		req, ok := l.epochs[s][e]
		if !ok {
			return nil, fmt.Errorf("commit producing epoch %d of session %d was never acknowledged", e, s)
		}
		next, err := adapt.Perturbation{GatewayFactor: req.GatewayFactor, SpeedFactor: req.SpeedFactor, LinkFactor: req.LinkFactor}.Apply(pl)
		if err != nil {
			return nil, err
		}
		pl = next
	}
	return pl, nil
}

// answer is one sampled response kept for the checks after the run.
type answer struct {
	r    *request
	rep  leanReport
	data []byte
}

// Kinds of sampled answers.
const (
	kRelax = iota
	kHeuristic
	kCommit
	kBatch
)

// checkSample keeps the first answers of each kind, at most
// perSession per session and perKind in all.
type checkSample struct {
	mu      sync.Mutex
	relax   []answer
	heur    []answer
	commits []answer
	batches []*request
	count   map[[2]int]int
}

func (cs *checkSample) take(kind, s int) bool {
	if cs.count == nil {
		cs.count = make(map[[2]int]int)
	}
	key, all := [2]int{kind, s}, [2]int{kind, -1}
	if cs.count[key] >= perSession || cs.count[all] >= perKind {
		return false
	}
	cs.count[key]++
	cs.count[all]++
	return true
}

func (cs *checkSample) add(r *request, rep leanReport, data []byte) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	a := answer{r: r, rep: rep, data: data}
	switch {
	case r.class == cEpoch:
		if cs.take(kCommit, r.sess) {
			cs.commits = append(cs.commits, a)
		}
	case r.whatIf.Relax:
		if cs.take(kRelax, r.sess) {
			cs.relax = append(cs.relax, a)
		}
	default:
		if cs.take(kHeuristic, r.sess) {
			cs.heur = append(cs.heur, a)
		}
	}
}

func (cs *checkSample) addBatch(r *request) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.take(kBatch, r.sess) {
		cs.batches = append(cs.batches, r)
	}
}

// applyWhatIf builds the hypothetical platform the server answers a
// what-if on.
func applyWhatIf(pl *platform.Platform, q *service.WhatIfRequest) *platform.Platform {
	epl := pl.Clone()
	for _, m := range q.Speeds {
		epl.Clusters[m.Cluster].Speed = m.Value
	}
	for _, m := range q.Gateways {
		epl.Clusters[m.Cluster].Gateway = m.Value
	}
	return epl
}

func objective(name string) core.Objective {
	if name == "sum" {
		return core.SUM
	}
	return core.MAXMIN
}

// coldBound solves the relaxation of pl from scratch, in process.
func coldBound(pl *platform.Platform, bs *benchSession) (float64, error) {
	pr := &core.Problem{Platform: pl, Payoffs: bs.payoffs}
	ub, _, err := heuristics.UpperBound(pr, objective(bs.spec.Objective))
	return ub, err
}

// verify runs the checks that need more than the response itself and
// returns one message per failure. It sends requests only after the
// measured windows.
func (l *loop) verify(ctx context.Context) []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	cs := l.checks
	hypo := func(a answer) (*platform.Platform, bool) {
		pl, err := l.ledger.platformAt(l.g.sessions[a.r.sess].pl, a.r.sess, a.rep.Epoch)
		if err != nil {
			fail("%s", err)
			return nil, false
		}
		if a.r.whatIf != nil {
			pl = applyWhatIf(pl, a.r.whatIf)
		}
		return pl, true
	}

	// Relax what-ifs: lpBound equals a cold solve of the same
	// hypothetical platform.
	for _, a := range cs.relax {
		pl, ok := hypo(a)
		if !ok {
			continue
		}
		want, err := coldBound(pl, l.g.sessions[a.r.sess])
		if err != nil {
			fail("cold solve: %v", err)
		} else if !close9(a.rep.LPBound, want) {
			fail("relax what-if on session %d epoch %d: lpBound %v, cold solve %v", a.r.sess, a.rep.Epoch, a.rep.LPBound, want)
		}
	}

	// Heuristic what-ifs and commits: the allocation is valid on the
	// platform it was computed for, and lpBound is that platform's
	// cold relaxation.
	for _, a := range append(append([]answer(nil), cs.heur...), cs.commits...) {
		pl, ok := hypo(a)
		if !ok {
			continue
		}
		var full service.SolveReport
		if err := json.Unmarshal(a.data, &full); err != nil {
			fail("decoding %s answer: %v", className[a.r.class], err)
			continue
		}
		bs := l.g.sessions[a.r.sess]
		pr := &core.Problem{Platform: pl, Payoffs: bs.payoffs}
		if err := pr.CheckAllocation(&core.Allocation{Alpha: full.Alpha, Beta: full.Beta}, core.DefaultTol); err != nil {
			fail("%s on session %d epoch %d: invalid allocation: %v", className[a.r.class], a.r.sess, a.rep.Epoch, err)
		}
		if v := pr.Objective(objective(bs.spec.Objective), &core.Allocation{Alpha: full.Alpha, Beta: full.Beta}); !close9(v, full.Value) {
			fail("%s on session %d: value %v, allocation scores %v", className[a.r.class], a.r.sess, full.Value, v)
		}
		if want, err := coldBound(pl, bs); err != nil {
			fail("cold solve: %v", err)
		} else if !close9(full.LPBound, want) {
			fail("%s on session %d epoch %d: lpBound %v, cold solve %v", className[a.r.class], a.r.sess, a.rep.Epoch, full.LPBound, want)
		}
	}

	// Batches: re-sent now (no commits run any more), each answer
	// equals the single Relax what-if of the same query.
	hc := l.hcs[0]
	for _, r := range cs.batches {
		data, err := call(ctx, hc, l.urls[r.node]+r.path, r.body)
		if err != nil {
			fail("re-sending batch: %v", err)
			continue
		}
		var b leanBatch
		if err := json.Unmarshal(data, &b); err != nil || len(b.Reports) != len(r.batch.Queries) {
			fail("re-sent batch: bad response (%v)", err)
			continue
		}
		for i, q := range r.batch.Queries {
			q := q
			q.Relax = true
			single, err := call(ctx, hc, l.urls[r.node]+l.g.path(r.sess, "whatif"), mustJSON(&q))
			if err != nil {
				fail("single what-if: %v", err)
				continue
			}
			var rep leanReport
			if err := json.Unmarshal(single, &rep); err != nil {
				fail("single what-if: %v", err)
				continue
			}
			if rep.Epoch != b.Epoch || !close9(rep.LPBound, b.Reports[i].LPBound) || !close9(rep.Value, b.Reports[i].Value) {
				fail("batch answer %d on session %d: %v at epoch %d, single what-if %v at epoch %d",
					i, r.sess, b.Reports[i].LPBound, b.Epoch, rep.LPBound, rep.Epoch)
			}
		}
	}

	// Every node answers the same committed state for every session,
	// at the epoch the acknowledged commits add up to.
	for s := range l.g.sessions {
		var first *leanReport
		for n, u := range l.urls {
			data, err := call(ctx, hc, u+l.g.path(s, "query"), nil)
			if err != nil {
				fail("final query of session %d via node %d: %v", s, n, err)
				continue
			}
			var rep leanReport
			if err := json.Unmarshal(data, &rep); err != nil {
				fail("final query: %v", err)
				continue
			}
			if want := l.ledger.acked(s); rep.Epoch != want {
				fail("session %d via node %d at epoch %d, %d commits acknowledged", s, n, rep.Epoch, want)
			}
			if first == nil {
				first = &rep
			} else if rep.Value != first.Value || rep.LPBound != first.LPBound || rep.Epoch != first.Epoch {
				fail("session %d: node %d answers %+v, node 0 answers %+v", s, n, rep, *first)
			}
		}
	}
	return bad
}
