package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/service"
)

// The in-process replay re-runs the traced window's request stream,
// in send order, through the layers' public functions. Each layer
// has its own fresh copy of the sessions, so all copies see the same
// cache and commit history; every request goes through the three
// copies back to back, so they run under the same host conditions.
// Each call is timed from outside; a layer's self time is its span
// minus the span of the layer below it for the same request.

// acc accumulates a per-class mean.
type acc struct {
	sum [nClasses]float64
	n   [nClasses]float64
}

func (a *acc) add(class int, v float64) { a.sum[class] += v; a.n[class]++ }

func (a *acc) mean(class int) float64 {
	if a.n[class] == 0 {
		return 0
	}
	return a.sum[class] / a.n[class]
}

// mean accumulates one scalar mean.
type mean struct{ sum, n float64 }

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m *mean) get() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func phaseNs(p lp.PhaseTimes) [5]float64 {
	return [5]float64{float64(p.FTRANNanos), float64(p.BTRANNanos), float64(p.PricingNanos), float64(p.RatioTestNanos), float64(p.RefactorNanos)}
}

func sum5(v [5]float64) float64 { return v[0] + v[1] + v[2] + v[3] + v[4] }

var phaseName = [5]string{"ftran", "btran", "pricing", "ratio", "refactor"}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// replayReq is one request of the traced stream with its request id,
// its position in the stream.
type replayReq struct {
	rid int64
	*request
}

// replay runs the first n requests of the traced stream that target
// one of the sessions in only (every session when only is nil)
// through every layer, and stores the per-layer metrics in out.
// Sessions no replayed request targets are not built.
func replay(n int, only []int, g *inputs, traced []*request, spans *spanLog, dir string, out map[string]float64) error {
	keep := make([]bool, len(g.sessions))
	for s := range keep {
		keep[s] = only == nil
	}
	for _, s := range only {
		keep[s] = true
	}
	var stream []replayReq
	used := make([]bool, len(g.sessions))
	for i, r := range traced {
		if len(stream) < n && keep[r.sess] {
			stream = append(stream, replayReq{int64(i + 1), r})
			used[r.sess] = true
		}
	}
	clientSpan := make(map[int64]int64)
	for _, s := range spans.spans {
		if strings.HasPrefix(s.Name, "client.http.") {
			clientSpan[s.ReqID] = s.ID
		}
	}

	hp, err := newHTTPPass(g, used)
	if err != nil {
		return fmt.Errorf("http layer: %w", err)
	}
	sp, err := newSessionPass(g, used)
	if err != nil {
		return fmt.Errorf("session layer: %w", err)
	}
	cp, err := newCorePass(g, used)
	if err != nil {
		return fmt.Errorf("core layer: %w", err)
	}
	httpSpan := make([]int64, len(stream))
	for i, r := range stream {
		if httpSpan[i], err = hp.do(r, spans, clientSpan[r.rid]); err != nil {
			return fmt.Errorf("http layer: %w", err)
		}
		if err := sp.do(r, spans, httpSpan[i]); err != nil {
			return fmt.Errorf("session layer: %w", err)
		}
		if err := cp.do(r, spans); err != nil {
			return fmt.Errorf("core layer: %w", err)
		}
	}
	hp.report(out)
	sp.report(out)
	cp.report(out)

	// service.http.self_us: the handler's time minus the session call
	// it made for the same request.
	self := spans.selfNs()
	var httpSelf acc
	for i, r := range stream {
		httpSelf.add(r.class, float64(self[httpSpan[i]]))
	}
	for k, name := range className {
		out["service.http.self_us."+name] = httpSelf.mean(k) / 1e3
	}

	if err := replayCluster(g, used, sp.pool, dir, out); err != nil {
		return fmt.Errorf("cluster layer: %w", err)
	}
	return nil
}

// httpPass serves requests through Server.Handler().ServeHTTP with a
// response recorder: time, response bytes and allocations per
// endpoint.
type httpPass struct {
	h               http.Handler
	bytesAcc, alloc acc
}

func newHTTPPass(g *inputs, used []bool) (*httpPass, error) {
	p := &httpPass{h: service.NewServer(service.NewPool(64)).Handler()}
	for s, bs := range g.sessions {
		if !used[s] {
			continue
		}
		rec := httptest.NewRecorder()
		p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", bytes.NewReader(bs.create)))
		if rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("create: %d %s", rec.Code, rec.Body.String())
		}
	}
	return p, nil
}

func (p *httpPass) do(r replayReq, spans *spanLog, parent int64) (int64, error) {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	m0 := mallocs()
	t := time.Now()
	p.h.ServeHTTP(rec, req)
	d := time.Since(t)
	p.alloc.add(r.class, float64(mallocs()-m0))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("%s: %d %s", r.path, rec.Code, rec.Body.String())
	}
	p.bytesAcc.add(r.class, float64(rec.Body.Len()))
	return spans.add("service.http."+className[r.class], parent, r.rid, t, d), nil
}

func (p *httpPass) report(out map[string]float64) {
	for k, name := range className {
		out["service.http.resp_bytes."+name] = p.bytesAcc.mean(k)
		out["service.http.allocs_per_req."+name] = p.alloc.mean(k)
	}
}

// sessionPass calls the Session methods the handlers call: time,
// allocations and solver-counter deltas per operation.
type sessionPass struct {
	pool                    *service.Pool
	sessions                []*service.Session
	alloc, self, piv, refac acc
	phase                   [5]acc
	lpNs, lpPivots          [nClasses]float64
}

func newSessionPass(g *inputs, used []bool) (*sessionPass, error) {
	p := &sessionPass{pool: service.NewPool(64), sessions: make([]*service.Session, len(g.sessions))}
	for s, bs := range g.sessions {
		if !used[s] {
			continue
		}
		var req service.CreateSessionRequest
		if err := json.Unmarshal(bs.create, &req); err != nil {
			return nil, err
		}
		sess, _, _, err := p.pool.GetOrCreate(&req)
		if err != nil {
			return nil, err
		}
		p.sessions[s] = sess
	}
	return p, nil
}

func (p *sessionPass) do(r replayReq, spans *spanLog, parent int64) error {
	sess := p.sessions[r.sess]
	st0 := sess.SolverStats()
	m0 := mallocs()
	t := time.Now()
	var err error
	switch r.class {
	case cQuery:
		_, err = sess.Query()
	case cWhatIf:
		q := *r.whatIf
		_, err = sess.WhatIf(&q)
	case cBatch:
		b := *r.batch
		_, err = sess.WhatIfBatch(&b)
	case cEpoch:
		_, err = sess.EpochIdempotent(r.epoch, "")
	}
	d := time.Since(t)
	p.alloc.add(r.class, float64(mallocs()-m0))
	if err != nil {
		return fmt.Errorf("%s: %w", className[r.class], err)
	}
	st1 := sess.SolverStats()
	p0, p1 := phaseNs(st0.Phase), phaseNs(st1.Phase)
	var ph [5]float64
	for j := range ph {
		ph[j] = p1[j] - p0[j]
		p.phase[j].add(r.class, ph[j]/1e6)
	}
	lpNs := sum5(ph)
	pivots := float64(st1.Pivots - st0.Pivots)
	p.piv.add(r.class, pivots)
	p.refac.add(r.class, float64(st1.Refactorizations-st0.Refactorizations))
	p.lpNs[r.class] += lpNs
	p.lpPivots[r.class] += pivots
	// Forked batch solves run side by side, so their phase time is
	// spread over the fork pool's width before it is subtracted.
	if r.class == cBatch {
		lpNs /= float64(min(r.batch.Workers, len(r.batch.Queries)))
	}
	p.self.add(r.class, float64(d.Nanoseconds())-lpNs)
	sid := spans.add("service.session."+className[r.class], parent, r.rid, t, d)
	spans.add("lp."+className[r.class], sid, r.rid, t, time.Duration(lpNs))
	return nil
}

func (p *sessionPass) report(out map[string]float64) {
	for k, name := range className {
		out["service.session.self_us."+name] = p.self.mean(k) / 1e3
		out["service.session.allocs."+name] = p.alloc.mean(k)
		out["lp.pivots."+name] = p.piv.mean(k)
		out["lp.refactors."+name] = p.refac.mean(k)
		for j, pn := range phaseName {
			out["lp."+pn+"_ms."+name] = p.phase[j].mean(k)
		}
		out["lp.us_per_pivot."+name] = 0
		if p.lpPivots[k] > 0 {
			out["lp.us_per_pivot."+name] = p.lpNs[k] / p.lpPivots[k] / 1e3
		}
	}
}

// corePass re-runs the what-ifs and commits on bare core.Models:
// capture, inject, heuristic, bound solve, restore, each timed. It is
// a separate decomposition of the session calls, so its spans are
// roots of their request.
type corePass struct {
	st                                              []*coreState
	cold, capture, inject, restore, bound, lprgSelf mean
}

type coreState struct {
	bs    *benchSession
	pl    *platform.Platform
	model *core.Model
	basis *lp.Basis
}

func newCorePass(g *inputs, used []bool) (*corePass, error) {
	p := &corePass{st: make([]*coreState, len(g.sessions))}
	for s, bs := range g.sessions {
		if !used[s] {
			continue
		}
		pr := &core.Problem{Platform: bs.pl, Payoffs: bs.payoffs}
		obj := objective(bs.spec.Objective)
		m, err := pr.NewModel(obj)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		_, basis, ok, err := m.Solve(nil)
		if err != nil || !ok {
			return nil, fmt.Errorf("cold solve: ok=%v err=%v", ok, err)
		}
		p.cold.add(usSince(t) / 1e3)
		if _, basis, err = heuristics.LPRGOnModel(m, pr, obj, basis); err != nil {
			return nil, err
		}
		p.st[s] = &coreState{bs: bs, pl: bs.pl, model: m, basis: basis}
	}
	return p, nil
}

func (p *corePass) do(r replayReq, spans *spanLog) error {
	if r.class != cWhatIf && r.class != cEpoch {
		return nil
	}
	s := p.st[r.sess]
	timed := func(name string, m *mean, f func() error) error {
		t := time.Now()
		err := f()
		d := time.Since(t)
		m.add(float64(d.Nanoseconds()) / 1e3)
		spans.add(name, 0, r.rid, t, d)
		return err
	}
	var epl *platform.Platform
	if r.class == cEpoch {
		var err error
		if epl, err = (adapt.Perturbation{GatewayFactor: r.epoch.GatewayFactor}).Apply(s.pl); err != nil {
			return err
		}
	} else {
		epl = applyWhatIf(s.pl, r.whatIf)
	}
	var snap *core.CapacityState
	_ = timed("core.capture", &p.capture, func() error { snap = s.model.CaptureState(); return nil })
	if err := timed("adapt.inject", &p.inject, func() error { return adapt.InjectCapacities(s.model, epl) }); err != nil {
		return err
	}
	if r.class == cEpoch {
		s.model.Rebase()
	}
	if r.class == cEpoch || !r.whatIf.Relax {
		epr := &core.Problem{Platform: epl, Payoffs: s.bs.payoffs}
		ph0 := sum5(phaseNs(s.model.SolverStats().Phase))
		t := time.Now()
		_, basis, err := heuristics.LPRGOnModel(s.model, epr, objective(s.bs.spec.Objective), s.basis)
		d := time.Since(t)
		if err != nil {
			return err
		}
		p.lprgSelf.add((float64(d.Nanoseconds()) - (sum5(phaseNs(s.model.SolverStats().Phase)) - ph0)) / 1e3)
		spans.add("heuristics.lprg", 0, r.rid, t, d)
		if r.class == cEpoch && basis != nil {
			s.basis = basis
		}
	}
	s.model.ResetBounds()
	if err := timed("core.bound_solve", &p.bound, func() error {
		_, ok, err := s.model.SolveEphemeral(s.basis)
		if err == nil && !ok {
			err = fmt.Errorf("bound solve infeasible")
		}
		return err
	}); err != nil {
		return err
	}
	if r.class == cEpoch {
		s.pl = epl
		return nil
	}
	return timed("core.restore", &p.restore, func() error { s.model.RestoreState(snap); return nil })
}

func (p *corePass) report(out map[string]float64) {
	out["lp.cold_solve_ms"] = p.cold.get()
	out["core.capture_us"] = p.capture.get()
	out["adapt.inject_us"] = p.inject.get()
	out["core.restore_us"] = p.restore.get()
	out["core.bound_solve_us"] = p.bound.get()
	out["heuristics.lprg_self_us"] = p.lprgSelf.get()
}

// replayCluster times the snapshot path of every session the session
// layer left behind: encode, decode, store save and warm restore,
// plus the platform decode every create and restore pays.
func replayCluster(g *inputs, used []bool, pool *service.Pool, dir string, out map[string]float64) error {
	storeDir := filepath.Join(dir, "replay-store")
	defer os.RemoveAll(storeDir)
	store, err := cluster.NewStore(storeDir)
	if err != nil {
		return err
	}
	var size, enc, dec, save, restore, plDecode mean
	const reps = 3
	for _, sess := range pool.Sessions() {
		for i := 0; i < reps; i++ {
			snap, err := sess.Snapshot()
			if err != nil {
				return err
			}
			t := time.Now()
			data, err := snap.Encode()
			enc.add(usSince(t))
			if err != nil {
				return err
			}
			size.add(float64(len(data)))
			t = time.Now()
			back, err := cluster.DecodeSnapshot(data)
			dec.add(usSince(t))
			if err != nil {
				return err
			}
			t = time.Now()
			if _, err := store.Save(snap); err != nil {
				return err
			}
			save.add(usSince(t) / 1e3)
			t = time.Now()
			_, _, warm, err := service.RestoreSession(back)
			restore.add(usSince(t) / 1e3)
			if err != nil {
				return err
			}
			if !warm {
				return fmt.Errorf("session %s restored cold", sess.Info().ID)
			}
		}
	}
	for s, bs := range g.sessions {
		if !used[s] {
			continue
		}
		for i := 0; i < reps; i++ {
			t := time.Now()
			if _, err := platform.Decode(bs.plJSON); err != nil {
				return err
			}
			plDecode.add(usSince(t) / 1e3)
		}
	}
	out["cluster.snapshot_bytes"] = size.get()
	out["cluster.encode_us"] = enc.get()
	out["cluster.decode_us"] = dec.get()
	out["cluster.store_save_ms"] = save.get()
	out["service.restore_ms"] = restore.get()
	out["platform.decode_ms"] = plDecode.get()
	return nil
}
