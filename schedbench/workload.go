package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/platgen"
	"repro/internal/service"
)

// Request classes. Every workload sends all four, so every workload
// reports every end-to-end latency.
const (
	cQuery = iota
	cWhatIf
	cBatch
	cEpoch
	nClasses
)

var className = [nClasses]string{"query", "whatif", "whatif_batch", "epoch"}

// genParams are the platgen knobs of every workload: network-bound
// platforms, where the relaxation is not trivially integral and the
// solver does real work on every what-if and commit.
var genParams = platgen.Params{Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}

type sessionSpec struct {
	K         int
	Objective string
}

// workload is one traffic mix against one schedd deployment.
type workload struct {
	name        string
	nodes       int // schedd processes; > 1 runs a ring
	replication int
	sessions    []sessionSpec
	// tail is the percentile the what-if and commit tails are read
	// at: the highest of p99, p95 and p90 that keeps at least ten
	// samples beyond it in every run.
	tail [nClasses]float64
	// setupReps is how many times set-up is timed; the last one is
	// kept for the measured window.
	setupReps int
	// replay is how many requests of the traced window the in-process
	// replay re-runs; replaySessions, when set, limits it to requests
	// on those sessions, so it builds fewer K=50 models.
	replay         int
	replaySessions []int
	// client returns the request generator of client c.
	client func(g *inputs, c int) func(rng *rand.Rand) *request
}

var workloads = map[string]*workload{
	"read-mix":     readMix,
	"commit-ring":  commitRing,
	"solver-heavy": solverHeavy,
}

// readMix: one schedd, four K=20 MAXMIN sessions that only ever see
// reads, plus a fifth that takes the workload's few commits, so the
// read sessions' answer caches are never invalidated. Per request:
// 20% queries, 28% hot what-ifs (16 fixed per session), 42% fresh
// what-ifs (half Relax), 5% 4-query Relax batches, 5% commits.
var readMix = &workload{
	name:      "read-mix",
	nodes:     1,
	sessions:  repeatSpec(5, sessionSpec{20, "maxmin"}),
	tail:      [nClasses]float64{cWhatIf: 0.99, cEpoch: 0.95},
	setupReps: 5,
	replay:    1500,
	client: func(g *inputs, c int) func(*rand.Rand) *request {
		drift := len(g.sessions) - 1
		return func(rng *rand.Rand) *request {
			s := rng.Intn(drift)
			switch r := rng.Float64(); {
			case r < 0.20:
				return g.query(s, 0)
			case r < 0.48:
				return g.hotWhatIf(rng, s)
			case r < 0.90:
				return g.freshWhatIf(rng, s, 0, rng.Intn(2) == 0)
			case r < 0.95:
				return g.batch(rng, s, 0, 4, 2)
			default:
				return g.epoch(rng, c, drift, 0)
			}
		}
	},
}

// commitRing: three schedd on one ring with replication 2 and a
// snapshot store each, six K=20 MAXMIN sessions, every request sent
// to a uniformly random node. Per request: 30% commits, 35% queries,
// 25% fresh what-ifs (one in three Relax), 10% 4-query Relax batches.
var commitRing = &workload{
	name:        "commit-ring",
	nodes:       3,
	replication: 2,
	sessions:    repeatSpec(6, sessionSpec{20, "maxmin"}),
	tail:        [nClasses]float64{cWhatIf: 0.95, cEpoch: 0.95},
	setupReps:   3,
	replay:      600,
	client: func(g *inputs, c int) func(*rand.Rand) *request {
		return func(rng *rand.Rand) *request {
			s, node := rng.Intn(len(g.sessions)), rng.Intn(3)
			switch r := rng.Float64(); {
			case r < 0.30:
				return g.epoch(rng, c, s, node)
			case r < 0.65:
				return g.query(s, node)
			case r < 0.90:
				return g.freshWhatIf(rng, s, node, rng.Intn(3) == 0)
			default:
				return g.batch(rng, s, node, 4, 2)
			}
		}
	},
}

// solverHeavy: one schedd, five K=50 MAXMIN and five K=50 SUM
// sessions. Per request: 25% commits, 25% queries and 25% fresh
// heuristic what-ifs on a MAXMIN session, 25% 16-query distinct Relax
// batches with 2 workers on a SUM session. Both clients draw from the
// same mix, so the completed mix does not shift with their relative
// speed, and neither locks into step with the other. Five platforms
// per class average out how much any one platform costs to solve.
var solverHeavy = &workload{
	name:           "solver-heavy",
	nodes:          1,
	sessions:       append(repeatSpec(5, sessionSpec{50, "maxmin"}), repeatSpec(5, sessionSpec{50, "sum"})...),
	tail:           [nClasses]float64{cWhatIf: 0.95, cEpoch: 0.95},
	setupReps:      3,
	replay:         120,
	replaySessions: []int{0, 5},
	client: func(g *inputs, c int) func(*rand.Rand) *request {
		return func(rng *rand.Rand) *request {
			s := rng.Intn(5)
			switch rng.Intn(4) {
			case 0:
				return g.epoch(rng, c, s, 0)
			case 1:
				return g.query(s, 0)
			case 2:
				return g.freshWhatIf(rng, s, 0, false)
			default:
				return g.batch(rng, 5+s, 0, 16, 2)
			}
		}
	},
}

func repeatSpec(n int, s sessionSpec) []sessionSpec {
	out := make([]sessionSpec, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// request is one HTTP call of the closed loop, with the decoded form
// the correctness checks and the in-process replay need.
type request struct {
	class  int
	sess   int
	node   int
	path   string
	body   []byte
	whatIf *service.WhatIfRequest
	batch  *service.BatchWhatIfRequest
	epoch  *service.EpochRequest
}

// benchSession is one generated session: its platform as sent, its
// configuration, and (after set-up) the ID the server gave it.
type benchSession struct {
	spec    sessionSpec
	plJSON  []byte
	pl      *platform.Platform // decoded from plJSON, as the server does
	payoffs []float64
	create  []byte
	hot     []*request
	id      string
}

// inputs holds everything generated from the seed.
type inputs struct {
	sessions []*benchSession
	// pending[c][s] is the reciprocal factor vector client c owes
	// session s: commits alternate a random drift with its inverse,
	// so capacities wander within a few percent however long the run.
	pending [][][]float64
}

func generate(w *workload, seed int64, clients int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &inputs{pending: make([][][]float64, clients)}
	for _, spec := range w.sessions {
		p := genParams
		p.K = spec.K
		pl, err := platgen.Generate(p, rng)
		if err != nil {
			return nil, err
		}
		data, err := pl.Encode()
		if err != nil {
			return nil, err
		}
		dec, err := platform.Decode(data)
		if err != nil {
			return nil, err
		}
		pay := make([]float64, spec.K)
		for k := range pay {
			pay[k] = float64(1 + rng.Intn(3))
		}
		create, err := json.Marshal(&service.CreateSessionRequest{
			Platform: data, Objective: spec.Objective, Heuristic: "lprg", Payoffs: pay,
		})
		if err != nil {
			return nil, err
		}
		g.sessions = append(g.sessions, &benchSession{spec: spec, plJSON: data, pl: dec, payoffs: pay, create: create})
	}
	for s, bs := range g.sessions {
		for i := 0; i < 16; i++ {
			bs.hot = append(bs.hot, g.freshWhatIf(rng, s, 0, i%2 == 0))
		}
	}
	for c := range g.pending {
		g.pending[c] = make([][]float64, len(g.sessions))
	}
	return g, nil
}

func (g *inputs) path(s int, op string) string {
	return "/sessions/" + g.sessions[s].id + "/" + op
}

func (g *inputs) query(s, node int) *request {
	return &request{class: cQuery, sess: s, node: node, path: g.path(s, "query")}
}

// hotWhatIf picks one of the session's 16 fixed what-ifs: after its
// first answer every repeat is an answer-cache hit.
func (g *inputs) hotWhatIf(rng *rand.Rand, s int) *request {
	r := *g.sessions[s].hot[rng.Intn(16)]
	r.path = g.path(s, "whatif")
	return &r
}

// whatIfBody draws a hypothetical with values no other draw repeats:
// one cluster's gateway scaled by 0.6–1.4, and on half the draws a
// second cluster's speed scaled by 0.7–1.0.
func (g *inputs) whatIfBody(rng *rand.Rand, s int, relax bool) *service.WhatIfRequest {
	pl := g.sessions[s].pl
	k := rng.Intn(pl.K())
	q := &service.WhatIfRequest{
		Gateways: []service.ClusterValue{{Cluster: k, Value: pl.Clusters[k].Gateway * (0.6 + 0.8*rng.Float64())}},
		Relax:    relax,
	}
	if rng.Intn(2) == 0 {
		l := rng.Intn(pl.K())
		q.Speeds = []service.ClusterValue{{Cluster: l, Value: pl.Clusters[l].Speed * (0.7 + 0.3*rng.Float64())}}
	}
	return q
}

func (g *inputs) freshWhatIf(rng *rand.Rand, s, node int, relax bool) *request {
	q := g.whatIfBody(rng, s, relax)
	return &request{class: cWhatIf, sess: s, node: node, path: g.path(s, "whatif"), body: mustJSON(q), whatIf: q}
}

func (g *inputs) batch(rng *rand.Rand, s, node, n, workers int) *request {
	b := &service.BatchWhatIfRequest{Workers: workers}
	for i := 0; i < n; i++ {
		b.Queries = append(b.Queries, *g.whatIfBody(rng, s, true))
	}
	return &request{class: cBatch, sess: s, node: node, path: g.path(s, "whatif/batch"), body: mustJSON(b), batch: b}
}

// epoch draws a commit for client c on session s: gateway factors in
// 0.97–1.03, or the inverse of the client's previous draw there.
func (g *inputs) epoch(rng *rand.Rand, c, s, node int) *request {
	f := g.pending[c][s]
	if f != nil {
		g.pending[c][s] = nil
	} else {
		f = make([]float64, g.sessions[s].spec.K)
		inv := make([]float64, len(f))
		for k := range f {
			f[k] = 0.97 + 0.06*rng.Float64()
			inv[k] = 1 / f[k]
		}
		g.pending[c][s] = inv
	}
	e := &service.EpochRequest{GatewayFactor: f}
	return &request{class: cEpoch, sess: s, node: node, path: g.path(s, "epoch"), body: mustJSON(e), epoch: e}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %T: %v", v, err))
	}
	return data
}
