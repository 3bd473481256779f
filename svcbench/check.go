package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"relpipe"
)

// checker verifies responses. The first response to each distinct body
// is checked in full against the library; a repeat of that body must
// return the same bytes, which a 64-bit digest compares. The digest map
// is bounded by the number of distinct bodies, not by run length.
type checker struct {
	mu      sync.Mutex
	digests map[int]uint64
}

func newChecker() *checker { return &checker{digests: map[int]uint64{}} }

func (c *checker) check(rq request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", rq.path, status, body)
	}
	if rq.id < 0 {
		return verify(rq.sp, body)
	}
	d := fnv64(body)
	c.mu.Lock()
	want, seen := c.digests[rq.id]
	c.mu.Unlock()
	if seen {
		if d != want {
			return fmt.Errorf("%s: body %d answered differently on a repeat", rq.path, rq.id)
		}
		return nil
	}
	if err := verify(rq.sp, body); err != nil {
		return err
	}
	c.mu.Lock()
	c.digests[rq.id] = d
	c.mu.Unlock()
	return nil
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// verify checks one response against the library: an optimize mapping
// must re-evaluate to the reported period, latency and reliability and
// meet the request's bounds; an evaluate must equal the library's
// evaluation; a simulate must equal the library's replicated run.
func verify(sp *spec, body []byte) error {
	switch sp.kind {
	case "optimize":
		var resp relpipe.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("optimize: decode: %w", err)
		}
		_, err := checkSolution(sp.opt, resp.Solution)
		return err
	case "evaluate":
		var resp relpipe.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("evaluate: decode: %w", err)
		}
		ev, err := relpipe.Evaluate(sp.eval.Instance, sp.eval.Mapping)
		if err != nil {
			return fmt.Errorf("evaluate: library: %w", err)
		}
		return sameEval("evaluate", resp.Eval, ev)
	case "simulate":
		var resp relpipe.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("simulate: decode: %w", err)
		}
		want, err := simulateLibrary(sp.sim, relpipe.Options{Parallelism: 1})
		if err != nil {
			return err
		}
		if resp != want {
			return fmt.Errorf("simulate: got %+v, library gives %+v", resp, want)
		}
		return nil
	}
	return fmt.Errorf("unknown kind %q", sp.kind)
}

// checkSolution re-evaluates a returned mapping and returns its failure
// probability.
func checkSolution(req *relpipe.OptimizeRequest, sol relpipe.Solution) (float64, error) {
	ev, err := relpipe.Evaluate(req.Instance, sol.Mapping)
	if err != nil {
		return 0, fmt.Errorf("optimize: returned mapping is invalid: %w", err)
	}
	if err := sameEval("optimize", sol.Eval, ev); err != nil {
		return 0, err
	}
	b := req.Bounds
	if b.Period > 0 && ev.WorstPeriod > b.Period || b.Latency > 0 && ev.WorstLatency > b.Latency {
		return 0, fmt.Errorf("optimize: period %g / latency %g break bounds %+v", ev.WorstPeriod, ev.WorstLatency, b)
	}
	return ev.FailProb, nil
}

func sameEval(kind string, got, want relpipe.Eval) error {
	if got.FailProb != want.FailProb || got.LogRel != want.LogRel ||
		got.WorstPeriod != want.WorstPeriod || got.WorstLatency != want.WorstLatency ||
		got.ExpPeriod != want.ExpPeriod || got.ExpLatency != want.ExpLatency {
		return fmt.Errorf("%s: reported (fail %.17g, WP %.17g, WL %.17g, EP %.17g, EL %.17g), library gives (fail %.17g, WP %.17g, WL %.17g, EP %.17g, EL %.17g)",
			kind, got.FailProb, got.WorstPeriod, got.WorstLatency, got.ExpPeriod, got.ExpLatency,
			want.FailProb, want.WorstPeriod, want.WorstLatency, want.ExpPeriod, want.ExpLatency)
	}
	return nil
}

// simulateLibrary is the replicated simulation the service should have
// run for sp, reduced the way the wire format reduces it (undefined
// aggregates read 0). Every simulate body of the workloads asks for
// more than one replication, which the service runs as a batch.
func simulateLibrary(sp *relpipe.SimulateRequest, opts relpipe.Options) (relpipe.SimulateResponse, error) {
	routing := relpipe.SimOneHop
	if sp.Routing == "two-hop" {
		routing = relpipe.SimTwoHop
	}
	cfg := relpipe.SimConfig{
		Chain: sp.Instance.Chain, Platform: sp.Instance.Platform, Mapping: sp.Mapping,
		Period: sp.Period, DataSets: sp.DataSets, Seed: sp.Seed,
		InjectFailures: sp.InjectFailures, Routing: routing, WarmUp: sp.WarmUp,
	}
	b, err := relpipe.SimulateBatch(cfg, sp.Replications, opts)
	if err != nil {
		return relpipe.SimulateResponse{}, fmt.Errorf("simulate: library: %w", err)
	}
	return relpipe.SimulateResponse{
		DataSets: b.DataSets(), Successes: b.Successes(),
		SuccessRate: finite(b.SuccessRate()), MeanLatency: finite(b.MeanLatency()),
		MaxLatency: finite(b.MaxLatency()), SteadyPeriod: finite(b.MeanSteadyPeriod()),
	}, nil
}

func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
