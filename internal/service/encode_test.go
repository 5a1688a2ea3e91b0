package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// serve runs one request through h in process and returns the
// recorded response.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// reflectiveBody is the reference encoding of a report as a cache hit
// serves it: a copy with Cached set, through the service encoder.
func reflectiveBody(t testing.TB, rep *SolveReport) []byte {
	t.Helper()
	cp := *rep
	cp.Cached = true
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newHandlerSession creates one session through an in-process server
// and returns the handler plus the live session behind it.
func newHandlerSession(t testing.TB, k int, seed int64) (http.Handler, *Session) {
	t.Helper()
	pool := NewPool(4)
	h := NewServer(pool).Handler()
	body, err := json.Marshal(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, k, seed))})
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(h, "POST", "/sessions", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	var created CreateSessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	sess := pool.Get(created.ID)
	if sess == nil {
		t.Fatalf("session %s not pooled", created.ID)
	}
	return h, sess
}

// TestWriteJSONUnencodable pins encode-before-status: a value the
// encoder rejects (NaN in a float field) is answered 500 with a
// decodable ErrorResponse, never a 200 with a truncated body, and the
// CLI-facing EncodeJSON writes nothing for it.
func TestWriteJSONUnencodable(t *testing.T) {
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, &SolveReport{Feasible: true, Value: v})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500; body %s", name, rec.Code, rec.Body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "unsupported value") {
			t.Fatalf("%s: error body %q (decode err %v)", name, rec.Body, err)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, &SolveReport{Value: v}); err == nil || buf.Len() != 0 {
			t.Fatalf("%s: EncodeJSON err %v, wrote %d bytes", name, err, buf.Len())
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// TestEncodeJSONCompact pins the one response encoding: compact, one
// trailing newline, Content-Length set on the HTTP path.
func TestEncodeJSONCompact(t *testing.T) {
	h, sess := newHandlerSession(t, 6, 301)
	rec := serve(h, "POST", "/sessions/"+sess.id+"/query", nil)
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK || !bytes.HasSuffix(body, []byte("}\n")) || bytes.Count(body, []byte("\n")) != 1 {
		t.Fatalf("query body not one compact line: %d %q", rec.Code, body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil || compact.Len() != len(body)-1 {
		t.Fatalf("query body is not compact JSON (compact %d bytes, body %d, err %v)", compact.Len(), len(body), err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, len(body))
	}
	rec = serve(h, "GET", "/sessions/"+sess.id+"/platform", nil)
	if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte("\n")) != 1 {
		t.Fatalf("platform body not one compact line: %d %q", rec.Code, rec.Body)
	}
}

// TestCachedHitBytesMatchReflectiveEncode pins the pre-encoded hit
// path: for the committed query, a heuristic what-if and a Relax
// what-if, the bytes a repeat serves equal a reflective encode of the
// Cached=true report — on the first hit (which encodes) and on later
// hits (which reuse the bytes).
func TestCachedHitBytesMatchReflectiveEncode(t *testing.T) {
	h, sess := newHandlerSession(t, 8, 302)
	pl := sess.pl
	heur := &WhatIfRequest{Gateways: []ClusterValue{{Cluster: 1, Value: pl.Clusters[1].Gateway * 0.6}}}
	relax := &WhatIfRequest{Speeds: []ClusterValue{{Cluster: 2, Value: pl.Clusters[2].Speed * 0.5}}, Relax: true}

	cases := []struct {
		name  string
		path  string
		body  []byte
		solve func() (*SolveReport, error)
	}{
		{"query", "/query", nil, sess.Query},
		{"heuristic what-if", "/whatif", mustJSON(heur), func() (*SolveReport, error) { return sess.WhatIf(heur) }},
		{"relax what-if", "/whatif", mustJSON(relax), func() (*SolveReport, error) { return sess.WhatIf(relax) }},
	}
	sess.FlushAnswerCache() // the create solve cached the query; start every case cold
	for _, c := range cases {
		rep, err := c.solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Cached {
			t.Fatalf("%s: first answer already cached", c.name)
		}
		want := reflectiveBody(t, rep)
		for i := 0; i < 3; i++ {
			rec := serve(h, "POST", "/sessions/"+sess.id+c.path, c.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s hit %d: status %d %s", c.name, i, rec.Code, rec.Body)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s hit %d: bytes differ from reflective encode\ngot:  %s\nwant: %s", c.name, i, rec.Body, want)
			}
		}
		// The in-process API still hands out the same answer as a report.
		again, err := c.solve()
		if err != nil || !again.Cached || !bytes.Equal(reflectiveBody(t, again), want) {
			t.Fatalf("%s: Session API hit disagrees with served bytes (err %v)", c.name, err)
		}
	}
}

// TestCommitDropsEncodedBytes pins per-epoch invalidation of the
// encoded bytes: after each commit the query never serves bytes of an
// earlier epoch, sequentially or to a reader racing the commits.
func TestCommitDropsEncodedBytes(t *testing.T) {
	h, sess := newHandlerSession(t, 6, 303)
	queryPath := "/sessions/" + sess.id + "/query"
	epochBody := mustJSON(&EpochRequest{SpeedFactor: uniformFactors(6, 0.97)})

	stop := make(chan struct{})
	readerErr := make(chan string, 1)
	go func() { // epochs a reader sees must never go backwards
		defer close(readerErr)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := serve(h, "POST", queryPath, nil)
			var rep SolveReport
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rep) != nil {
				readerErr <- "query failed: " + rec.Body.String()
				return
			}
			if rep.Epoch < last {
				readerErr <- "query went back from epoch " + strconv.Itoa(last) + " to " + strconv.Itoa(rep.Epoch)
				return
			}
			last = rep.Epoch
		}
	}()

	seen := map[string]int{}
	for epoch := 0; epoch <= 4; epoch++ {
		if epoch > 0 {
			if rec := serve(h, "POST", "/sessions/"+sess.id+"/epoch", epochBody); rec.Code != http.StatusOK {
				t.Fatalf("commit %d: %d %s", epoch, rec.Code, rec.Body)
			}
		}
		for i := 0; i < 3; i++ { // a solve or hit, then hits
			rec := serve(h, "POST", queryPath, nil)
			var rep SolveReport
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Epoch != epoch {
				t.Fatalf("epoch %d query %d: answered epoch %d (err %v)", epoch, i, rep.Epoch, err)
			}
			body := strings.Replace(rec.Body.String(), `,"cached":true`, "", 1)
			if prev, ok := seen[body]; ok && prev != epoch {
				t.Fatalf("epoch %d query served epoch %d's bytes", epoch, prev)
			}
			seen[body] = epoch
		}
	}
	close(stop)
	if msg, ok := <-readerErr; ok {
		t.Fatal(msg)
	}
}

// TestCoalescedWaiterBody pins that a coalesced waiter's response is
// encoded from its own report copy: its body says "coalesced":true
// while the leader's does not.
func TestCoalescedWaiterBody(t *testing.T) {
	h, sess := newHandlerSession(t, 6, 304)
	body := mustJSON(&WhatIfRequest{Gateways: []ClusterValue{{Cluster: 0, Value: sess.pl.Clusters[0].Gateway * 0.5}}})
	path := "/sessions/" + sess.id + "/whatif"

	sess.mu.Lock() // the leader blocks mid-flight; the rest must park on it
	const n = 4
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = serve(h, "POST", path, body).Body.String()
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sess.whatIfs.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("what-if flight never registered")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters park
	sess.mu.Unlock()
	wg.Wait()

	coalesced := 0
	for _, b := range bodies {
		var rep SolveReport
		if err := json.Unmarshal([]byte(b), &rep); err != nil {
			t.Fatalf("body %q: %v", b, err)
		}
		if has := strings.Contains(b, `"coalesced":true`); has != rep.Coalesced || rep.Cached {
			t.Fatalf("body disagrees with its report: %s", b)
		}
		if rep.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d of %d bodies coalesced, want %d", coalesced, n, n-1)
	}
}

// TestFirstHitRaceSharesOneEncode races 32 first hits on one cache
// entry: every response carries identical bytes, equal to the
// reflective encode.
func TestFirstHitRaceSharesOneEncode(t *testing.T) {
	h, sess := newHandlerSession(t, 8, 305)
	sess.FlushAnswerCache()
	rep, err := sess.Query() // populate: the entry exists, nothing encoded yet
	if err != nil {
		t.Fatal(err)
	}
	want := reflectiveBody(t, rep)
	const n = 32
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			bodies[i] = serve(h, "POST", "/sessions/"+sess.id+"/query", nil).Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("goroutine %d got different bytes:\n%s\nwant:\n%s", i, b, want)
		}
	}
}

// cachedQueryAllocBound pins allocations per cached K=20
// POST /sessions/{id}/query through Server.Handler().ServeHTTP,
// counted around ServeHTTP alone. Measured 20.0 on go1.24/amd64; the
// bound adds a margin of 4 for toolchain drift and stays well below
// the 34.3 the same count gave when every hit was re-encoded,
// indented, by reflection.
const cachedQueryAllocBound = 24

// TestCachedQueryAllocs is the HTTP-layer alloc guard: a cache hit is
// served from pre-encoded bytes, so its allocations are routing,
// tracing and headers only — not a reflective encode of the report.
func TestCachedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h, sess := newHandlerSession(t, 20, 306)
	path := "/sessions/" + sess.id + "/query"
	for i := 0; i < 4; i++ { // solve, first hit (encodes), warm the pools
		if rec := serve(h, "POST", path, nil); rec.Code != http.StatusOK {
			t.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
	}
	const runs = 200
	reqs := make([]*http.Request, runs)
	recs := make([]*httptest.ResponseRecorder, runs)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("POST", path, nil)
		recs[i] = httptest.NewRecorder()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / runs
	for _, rec := range recs {
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
			t.Fatalf("not a cache hit: %d %s", rec.Code, rec.Body)
		}
	}
	t.Logf("cached K=20 query: %.2f allocs/request (bound %d)", perReq, cachedQueryAllocBound)
	if perReq > cachedQueryAllocBound {
		t.Fatalf("cached K=20 query allocates %.2f per request, bound %d", perReq, cachedQueryAllocBound)
	}
}
