package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

const clients = 2

// httpClient is one closed-loop caller's connection set: one
// keep-alive connection per node, no proxy, no compression.
func httpClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// call POSTs body to url and returns the response body, failing on
// any status other than 200 and 201.
func call(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// get GETs url and returns the response body, failing on any status
// other than 200.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// leanReport is the part of a SolveReport every response is checked
// on; decoding into it skips the allocation tables.
type leanReport struct {
	Feasible bool    `json:"feasible"`
	Value    float64 `json:"value"`
	LPBound  float64 `json:"lpBound"`
	Relaxed  bool    `json:"relaxed"`
	Epoch    int     `json:"epoch"`
}

type leanBatch struct {
	Reports []leanReport `json:"reports"`
	Epoch   int          `json:"epoch"`
}

// sample is one completed request of a measured window.
type sample struct {
	class int
	owner bool // served by the session's owner without a forward
	ms    float64
}

// window is what one closed-loop window produced.
type window struct {
	seconds   float64
	samples   []sample
	attempted int
	failed    int
	answers   int // what-if answers delivered through batches
	wrong     []string
	stream    []*request // requests in send order (traced windows only)
	spans     *spanLog
}

// loop holds the state the closed loop carries across windows: the
// generators, the commit ledger and the correctness sample.
type loop struct {
	g      *inputs
	urls   []string
	owners []int // owner node of each session
	hcs    []*http.Client
	next   []func(*rand.Rand) *request
	rngs   []*rand.Rand
	ledger *ledger
	checks *checkSample

	errMu sync.Mutex
	errs  []string // the first few request errors, for the report
}

// logErr keeps the first five request errors.
func (l *loop) logErr(err error) {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

func newLoop(w *workload, g *inputs, urls []string, owners []int, seed int64) *loop {
	l := &loop{g: g, urls: urls, owners: owners, ledger: newLedger(len(g.sessions)), checks: &checkSample{}}
	for c := 0; c < clients; c++ {
		l.hcs = append(l.hcs, httpClient())
		l.next = append(l.next, w.client(g, c))
		l.rngs = append(l.rngs, rand.New(rand.NewSource(seed*1000003+int64(c)+1)))
	}
	return l
}

func (l *loop) close() {
	for _, hc := range l.hcs {
		hc.CloseIdleConnections()
	}
}

// run drives both clients for d with no think time. With a span log,
// every call is recorded as a client span and every request is kept
// for the replay.
func (l *loop) run(ctx context.Context, d time.Duration, spans *spanLog) *window {
	win := &window{spans: spans}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local window
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := l.next[c](l.rngs[c])
				if spans != nil {
					mu.Lock()
					win.stream = append(win.stream, r)
					rid := int64(len(win.stream))
					mu.Unlock()
					sp := spans.begin("client.http."+className[r.class], 0, rid)
					l.do(ctx, c, r, &local)
					spans.end(sp)
				} else {
					l.do(ctx, c, r, &local)
				}
			}
			mu.Lock()
			win.samples = append(win.samples, local.samples...)
			win.attempted += local.attempted
			win.failed += local.failed
			win.answers += local.answers
			win.wrong = append(win.wrong, local.wrong...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	win.seconds = time.Since(start).Seconds()
	return win
}

// do sends one request, times it, and checks the answer.
func (l *loop) do(ctx context.Context, c int, r *request, win *window) {
	win.attempted++
	t0 := time.Now()
	data, err := call(ctx, l.hcs[c], l.urls[r.node]+r.path, r.body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		if ctx.Err() == nil {
			win.failed++
			l.logErr(err)
		}
		return
	}
	win.samples = append(win.samples, sample{class: r.class, owner: r.node == l.owners[r.sess], ms: ms})
	if msg := l.check(r, data); msg != "" {
		win.wrong = append(win.wrong, msg)
	}
	if r.class == cBatch {
		win.answers += len(r.batch.Queries)
	}
}

// check validates one response on the spot (decodable, feasible,
// value within the bound, relaxation answers equal to their bound)
// and files it for the slower checks after the run.
func (l *loop) check(r *request, data []byte) string {
	if r.class == cBatch {
		var b leanBatch
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Sprintf("batch: undecodable response: %v", err)
		}
		if len(b.Reports) != len(r.batch.Queries) {
			return fmt.Sprintf("batch: %d reports for %d queries", len(b.Reports), len(r.batch.Queries))
		}
		for i, rep := range b.Reports {
			if !rep.Feasible || !rep.Relaxed || rep.Value != rep.LPBound {
				return fmt.Sprintf("batch: report %d is not a feasible relaxation answer: %+v", i, rep)
			}
		}
		l.checks.addBatch(r)
		return ""
	}
	var rep leanReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Sprintf("%s: undecodable response: %v", className[r.class], err)
	}
	if !rep.Feasible {
		return fmt.Sprintf("%s: infeasible answer on a capacity-only change", className[r.class])
	}
	if rep.Value > rep.LPBound*(1+relTol) {
		return fmt.Sprintf("%s: value %v above its bound %v", className[r.class], rep.Value, rep.LPBound)
	}
	relax := r.whatIf != nil && r.whatIf.Relax
	if relax && (!rep.Relaxed || rep.Value != rep.LPBound) {
		return fmt.Sprintf("whatif: relaxation answer with value %v != bound %v", rep.Value, rep.LPBound)
	}
	switch r.class {
	case cEpoch:
		l.ledger.commit(r.sess, rep.Epoch, r.epoch)
		l.checks.add(r, rep, data)
	case cWhatIf:
		l.checks.add(r, rep, data)
	}
	return ""
}

// setup times one deployment: launch, create every session and have
// each answer one query.
func setup(ctx context.Context, bin, dir string, w *workload, g *inputs) (*deployment, float64, error) {
	t0 := time.Now()
	cl, err := launch(bin, dir, w)
	if err != nil {
		return nil, 0, err
	}
	if err := createSessions(ctx, cl.procs[0].url, g); err != nil {
		cl.stop()
		return nil, 0, err
	}
	return cl, time.Since(t0).Seconds(), nil
}

// createSessions creates every session through url and has each
// answer one query.
func createSessions(ctx context.Context, url string, g *inputs) error {
	hc := httpClient()
	defer hc.CloseIdleConnections()
	for _, s := range g.sessions {
		data, err := call(ctx, hc, url+"/sessions", s.create)
		if err != nil {
			return fmt.Errorf("creating session: %w", err)
		}
		var resp service.CreateSessionResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if s.id != "" && s.id != resp.ID {
			return fmt.Errorf("session id %s, earlier set-up gave %s", resp.ID, s.id)
		}
		s.id = resp.ID
	}
	for _, s := range g.sessions {
		if _, err := call(ctx, hc, url+"/sessions/"+s.id+"/query", nil); err != nil {
			return fmt.Errorf("first query: %w", err)
		}
	}
	return nil
}

// owners finds the node each session lives on: every node lists only
// its own live sessions.
func owners(ctx context.Context, urls []string, g *inputs) ([]int, error) {
	hc := httpClient()
	defer hc.CloseIdleConnections()
	where := make(map[string]int)
	for i, u := range urls {
		data, err := get(ctx, hc, u+"/sessions")
		if err != nil {
			return nil, err
		}
		var infos []service.SessionInfo
		if err := json.Unmarshal(data, &infos); err != nil {
			return nil, err
		}
		for _, in := range infos {
			where[in.ID] = i
		}
	}
	out := make([]int, len(g.sessions))
	for s, bs := range g.sessions {
		n, ok := where[bs.id]
		if !ok {
			return nil, fmt.Errorf("session %s is live on no node", bs.id)
		}
		out[s] = n
	}
	return out, nil
}
