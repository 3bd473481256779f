package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// verifySeed generates every workload's verification set. It is fixed,
// not taken from --seed, so failprob_nines repeats exactly across runs
// and seeds and moves only when a solver's answers change.
const verifySeed = 20100913

// request is one body the harness sends, plus what its output check
// needs.
type request struct {
	path string
	data []byte
	// id names the distinct body: repeats of one body share it and are
	// checked against the first verified response; -1 marks a body that
	// never repeats.
	id int
	sp *spec
}

// spec is the decoded meaning of a body: exactly one of the request
// DTOs, which the checker re-evaluates or re-simulates against.
type spec struct {
	kind string // optimize, evaluate or simulate
	opt  *relpipe.OptimizeRequest
	eval *relpipe.EvaluateRequest
	sim  *relpipe.SimulateRequest
}

func (sp *spec) instance() relpipe.Instance {
	switch {
	case sp.opt != nil:
		return sp.opt.Instance
	case sp.eval != nil:
		return sp.eval.Instance
	}
	return sp.sim.Instance
}

func (sp *spec) dto() any {
	switch {
	case sp.opt != nil:
		return sp.opt
	case sp.eval != nil:
		return sp.eval
	}
	return sp.sim
}

func newRequest(id int, sp *spec) request {
	data, err := json.Marshal(sp.dto())
	if err != nil {
		panic(err) // the DTOs hold only finite floats and slices
	}
	return request{path: "/v1/" + sp.kind, data: data, id: id, sp: sp}
}

// workload is one traffic mix: a fixed warm-up list, an endless timed
// stream that continues where the warm-up stopped, and a fixed
// verification set.
type workload struct {
	name string
	// limit is the latency a response must meet to count as goodput.
	limit time.Duration
	warm  []request
	next  func() request
	// rate is the open-loop arrival rate per second; 0 means a closed
	// loop with one client.
	rate   float64
	arrive *rng.Rand
	verify []request
	// replay is how many stream bodies each pass of the traced replay
	// covers.
	replay int
}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "hit-envelope":
		return hitEnvelope(seed), nil
	case "miss-search":
		return missSearch(seed), nil
	case "zipf-open":
		return zipfOpen(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hit-envelope, miss-search or zipf-open)", name)
}

// ---- instance families ----

// homInstance is the paper's homogeneous family: a random n-task chain
// on ten identical processors.
func homInstance(r *rng.Rand, n int) relpipe.Instance {
	return relpipe.Instance{Chain: chain.PaperRandom(r, n), Platform: platform.PaperHomogeneous(10)}
}

// hetInstance is the paper's heterogeneous family; n=100, p=30 is the
// instance shape cmd/bench's search kernel uses.
func hetInstance(r *rng.Rand, n, p int) relpipe.Instance {
	c := chain.PaperRandom(r, n)
	return relpipe.Instance{Chain: c, Platform: platform.PaperHeterogeneous(r, p)}
}

// spreadMapping is a valid mapping built without solving: k near-equal
// intervals, each on reps distinct processors drawn from a permutation.
func spreadMapping(r *rng.Rand, in relpipe.Instance, k, reps int) relpipe.Mapping {
	n := len(in.Chain)
	perm := r.Perm(in.Platform.P())
	m := relpipe.Mapping{}
	for j := 0; j < k; j++ {
		m.Parts = append(m.Parts, interval.Interval{First: j * n / k, Last: (j+1)*n/k - 1})
		m.Procs = append(m.Procs, append([]int(nil), perm[j*reps:(j+1)*reps]...))
	}
	return m
}

func optimizeSpec(in relpipe.Instance, b relpipe.Bounds, method string, search *relpipe.SearchParams) *spec {
	return &spec{kind: "optimize", opt: &relpipe.OptimizeRequest{Instance: in, Bounds: b, Method: method, Search: search}}
}

func evaluateSpec(in relpipe.Instance, m relpipe.Mapping) *spec {
	return &spec{kind: "evaluate", eval: &relpipe.EvaluateRequest{Instance: in, Mapping: m}}
}

// simulateSpec is a replicated failure-injection simulation of m at a
// period 25% above its worst-case period, so data sets never back up.
func simulateSpec(in relpipe.Instance, m relpipe.Mapping, dataSets, reps int, seed uint64) *spec {
	ev, err := relpipe.Evaluate(in, m)
	if err != nil {
		panic(err) // spreadMapping builds valid mappings only
	}
	return &spec{kind: "simulate", sim: &relpipe.SimulateRequest{
		Instance: in, Mapping: m, Period: 1.25 * ev.WorstPeriod, DataSets: dataSets,
		Seed: seed, InjectFailures: true, Routing: "two-hop", Replications: reps,
	}}
}

// Bounds every seed of each family meets (checked over many seeds), so
// no request of any workload is infeasible.
var (
	het100Bounds = relpipe.Bounds{Period: 25, Latency: 600}
	het40Bounds  = []relpipe.Bounds{{Period: 40, Latency: 400}, {Period: 50, Latency: 450}, {Period: 60, Latency: 500}, {Period: 80, Latency: 600}}
	hom12Bounds  = []relpipe.Bounds{{Period: 200}, {Period: 300}}
	hom8Bounds   = []relpipe.Bounds{{Period: 200, Latency: 700}, {Period: 250, Latency: 800}}
)

// ---- hit-envelope ----

// hitEnvelope is a pool of 320 distinct bodies — 256 on 12-task
// homogeneous instances (dp optimize, evaluate, replicated simulate)
// and 64 on 100-task heterogeneous ones (heuristic optimize, evaluate).
// The warm-up sends the pool once, which primes every body into the
// 1024-entry cache; the timed stream then draws uniformly from it, so
// every timed request is a hit.
func hitEnvelope(seed uint64) *workload {
	pool := hitPool(rng.New(seed))
	r := rng.New(seed ^ 0x5bd1e995)
	w := &workload{name: "hit-envelope", limit: 5 * time.Millisecond, warm: pool, replay: len(pool)}
	w.next = func() request { return pool[r.IntN(len(pool))] }
	w.verify = optimizeOnly(hitPool(rng.New(verifySeed)), 16)
	return w
}

func hitPool(r *rng.Rand) []request {
	var specs []*spec
	for i := 0; i < 32; i++ {
		in := homInstance(r, 12)
		for _, b := range hom12Bounds {
			specs = append(specs, optimizeSpec(in, b, "dp", nil))
		}
		for k := 0; k < 4; k++ {
			specs = append(specs, evaluateSpec(in, spreadMapping(r, in, 2+k, 1+k%2)))
		}
		specs = append(specs, simulateSpec(in, spreadMapping(r, in, 3, 2), 50, 8, uint64(i+1)))
		specs = append(specs, simulateSpec(in, spreadMapping(r, in, 4, 2), 50, 8, uint64(i+1)))
	}
	for i := 0; i < 16; i++ {
		in := hetInstance(r, 100, 30)
		for k := 0; k < 2; k++ {
			specs = append(specs, optimizeSpec(in, het100Bounds, "heuristic", &relpipe.SearchParams{Restarts: 1, Budget: 1000, Seed: uint64(2*i + k + 1)}))
		}
		for k := 0; k < 2; k++ {
			specs = append(specs, evaluateSpec(in, spreadMapping(r, in, 10+5*k, 2)))
		}
	}
	pool := make([]request, len(specs))
	for i, sp := range specs {
		pool[i] = newRequest(i, sp)
	}
	return pool
}

// optimizeOnly picks n optimize bodies evenly spread over a list, so a
// verification set covers every solver the list uses.
func optimizeOnly(rs []request, n int) []request {
	var opt []request
	for _, rq := range rs {
		if rq.sp.kind == "optimize" {
			opt = append(opt, rq)
		}
	}
	out := make([]request, n)
	for i := range out {
		out[i] = opt[i*len(opt)/n]
	}
	return out
}

// ---- miss-search ----

// searchTemplate renders one heuristic-optimize body for any search seed
// without re-marshalling its instance.
type searchTemplate struct {
	sp             *spec
	prefix, suffix []byte
}

const seedMarker = 987654321987654321

func newSearchTemplate(in relpipe.Instance, b relpipe.Bounds, restarts, budget int) searchTemplate {
	sp := optimizeSpec(in, b, "heuristic", &relpipe.SearchParams{Restarts: restarts, Budget: budget, Seed: seedMarker})
	data, err := json.Marshal(sp.opt)
	if err != nil {
		panic(err)
	}
	marker := []byte(strconv.FormatUint(seedMarker, 10))
	i := bytes.Index(data, marker)
	return searchTemplate{sp: sp, prefix: data[:i], suffix: data[i+len(marker):]}
}

// render returns the body for one search seed; id is its distinct-body
// id (-1 when it never repeats).
func (t searchTemplate) render(id int, seed uint64) request {
	data := make([]byte, 0, len(t.prefix)+20+len(t.suffix))
	data = append(data, t.prefix...)
	data = strconv.AppendUint(data, seed, 10)
	data = append(data, t.suffix...)
	return request{path: "/v1/optimize", data: data, id: id, sp: t.sp}
}

// missSearch sends distinct heuristic optimize bodies over 128 n=100,
// p=30 heterogeneous instances, each with its own search seed: every
// request misses, solves, is put into the cache and, once the cache is
// full, evicts. 128 instances keep the mean solve cost the same from
// seed to seed. The 64-request warm-up is the stream's head.
func missSearch(seed uint64) *workload {
	r := rng.New(seed)
	tmpls := make([]searchTemplate, 128)
	for i := range tmpls {
		tmpls[i] = newSearchTemplate(hetInstance(r, 100, 30), het100Bounds, 1, 1000)
	}
	order := r.Perm(len(tmpls))
	n := 0
	next := func() request {
		n++
		return tmpls[order[n%len(order)]].render(-1, seed<<24+uint64(n))
	}
	w := &workload{name: "miss-search", limit: 50 * time.Millisecond, next: next, replay: 150}
	for i := 0; i < 64; i++ {
		w.warm = append(w.warm, next())
	}
	vr := rng.New(verifySeed)
	for i := 0; i < 16; i++ {
		w.verify = append(w.verify, newSearchTemplate(hetInstance(vr, 100, 30), het100Bounds, 1, 1000).render(-1, uint64(i+1)))
	}
	return w
}

// ---- zipf-open ----

// zipfInstance holds one instance's distinct bodies: fixed ones, plus
// heuristic templates each rendered under zipfSearchSeeds seeds.
type zipfInstance struct {
	base  int // distinct-body id of the first body
	fixed []request
	tmpls []searchTemplate
}

const zipfSearchSeeds = 8

func (z *zipfInstance) size() int { return len(z.fixed) + len(z.tmpls)*zipfSearchSeeds }

func (z *zipfInstance) body(k int) request {
	if k < len(z.fixed) {
		return z.fixed[k]
	}
	j := k - len(z.fixed)
	return z.tmpls[j/zipfSearchSeeds].render(z.base+k, uint64(j%zipfSearchSeeds+1))
}

// zipfInstances builds zipf-open's 512 instances, alternating two
// families. A 40-task heterogeneous instance has 32 heuristic optimize
// bodies (four bound pairs × eight search seeds), two evaluates and one
// replicated simulate; an 8-task homogeneous one has two exact optimize
// bodies, two evaluates and one simulate. That is 10240 distinct
// bodies, ten times the cache.
func zipfInstances(r *rng.Rand) []*zipfInstance {
	var out []*zipfInstance
	id := 0
	for i := 0; i < 512; i++ {
		z := &zipfInstance{base: id}
		var specs []*spec
		if i%2 == 0 {
			in := hetInstance(r, 40, 12)
			for _, b := range het40Bounds {
				z.tmpls = append(z.tmpls, newSearchTemplate(in, b, 2, 2000))
			}
			specs = append(specs, evaluateSpec(in, spreadMapping(r, in, 4, 2)), evaluateSpec(in, spreadMapping(r, in, 6, 1)))
			specs = append(specs, simulateSpec(in, spreadMapping(r, in, 5, 2), 100, 8, uint64(i+1)))
		} else {
			in := homInstance(r, 8)
			for _, b := range hom8Bounds {
				specs = append(specs, optimizeSpec(in, b, "exact", nil))
			}
			specs = append(specs, evaluateSpec(in, spreadMapping(r, in, 2, 3)), evaluateSpec(in, spreadMapping(r, in, 4, 2)))
			specs = append(specs, simulateSpec(in, spreadMapping(r, in, 3, 2), 100, 8, uint64(i+1)))
		}
		for k, sp := range specs {
			z.fixed = append(z.fixed, newRequest(id+k, sp))
		}
		id += z.size()
		out = append(out, z)
	}
	return out
}

// zipfSampler draws an instance rank with probability ∝ 1/(rank+1)^s.
type zipfSampler struct{ cdf []float64 }

func newZipf(n int, s float64) zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipfSampler{cdf}
}

func (z zipfSampler) draw(r *rng.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// zipfOpen is an open loop: seeded Poisson arrivals at a fixed rate,
// each picking an instance by Zipf popularity (s=1) and then one of that instance's bodies uniformly. Popular
// instances are asked under several bound pairs and search seeds at
// once, so same-instance misses overlap (the solve batcher's case);
// hits, misses, evictions and dedup joins all occur. The 1024-request
// warm-up is the stream's head, sent back-to-back; it brings the cache
// to its steady hit ratio before the open loop starts.
func zipfOpen(seed uint64) *workload {
	r := rng.New(seed)
	insts := zipfInstances(r)
	// Popularity ranks alternate the two families, each shuffled by the
	// seed, so every seed puts the same mix of families at each rank and
	// the hit ratio does not depend on which family drew the top ranks.
	rank := make([]int, len(insts))
	for fam := 0; fam < 2; fam++ {
		for j, p := range r.Perm(len(insts) / 2) {
			rank[2*j+fam] = 2*p + fam
		}
	}
	z := newZipf(len(insts), 1)
	pick := rng.New(seed ^ 0x9e3779b97f4a7c15)
	next := func() request {
		in := insts[rank[z.draw(pick)]]
		return in.body(pick.IntN(in.size()))
	}
	w := &workload{name: "zipf-open", limit: 100 * time.Millisecond, next: next, rate: 400,
		arrive: rng.New(seed ^ 0xc2b2ae3d27d4eb4f), replay: 400}
	for i := 0; i < 1024; i++ {
		w.warm = append(w.warm, next())
	}
	var opt []request
	for _, in := range zipfInstances(rng.New(verifySeed))[:16] {
		for k := 0; k < in.size(); k++ {
			if rq := in.body(k); rq.sp.kind == "optimize" {
				opt = append(opt, rq)
			}
		}
	}
	w.verify = optimizeOnly(opt, 16)
	return w
}
