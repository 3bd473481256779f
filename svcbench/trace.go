package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/obs"
	"relpipe/internal/service"
)

// This file is the traced run. During the timed phase a collector reads
// the server's own counters (/metrics, Server.Metrics) and the queue and
// dedup spans it already records (/debug/traces). After it, a replay
// times each layer of a fixed prefix of the workload's stream from
// outside, with spans recorded only here: decode, Canonical, the
// result cache, the solve (with the solver's stage events), the
// heuristic tables, marshal, and ServeHTTP of the same body.

// collector gathers server-side evidence during the timed phase.
type collector struct {
	before   map[string]float64
	rejected int64
	stopC    chan struct{}
	wg       sync.WaitGroup
	queue    hist
	dedup    hist
}

// pollEvery is how often the collector reads /debug/traces. The
// recorder keeps the 256 newest traces, which outlasts 100 ms at every
// workload's solve rate.
const pollEvery = 100 * time.Millisecond

func startCollector(srv *service.Server) *collector {
	c := &collector{before: scrape(srv), rejected: rejectedCount(srv), stopC: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		rw := newRespWriter()
		seen := map[string]bool{}
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stopC:
				c.poll(srv, rw, seen)
				return
			case <-tick.C:
				seen = c.poll(srv, rw, seen)
			}
		}
	}()
	return c
}

// poll records the queue.wait and dedup.wait spans of traces not seen in
// the previous poll; a trace stays in the recorder until evicted, so
// "new since last poll" never counts one twice.
func (c *collector) poll(srv http.Handler, rw *respWriter, prev map[string]bool) map[string]bool {
	if serve(srv, rw, "GET", "/debug/traces", nil) != http.StatusOK {
		return prev
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if json.Unmarshal(rw.body.Bytes(), &doc) != nil {
		return prev
	}
	now := map[string]bool{}
	for _, t := range doc.Traces {
		now[t.TraceID] = true
		if prev[t.TraceID] {
			continue
		}
		for _, sp := range t.Spans {
			switch sp.Name {
			case "queue.wait":
				c.queue.record(sp.End.Sub(sp.Start))
			case "dedup.wait":
				c.dedup.record(sp.End.Sub(sp.Start))
			}
		}
	}
	return now
}

func (c *collector) stop(srv *service.Server, requests int64, elapsed time.Duration, ms0, ms1 *runtime.MemStats) []metric {
	workers := runtime.GOMAXPROCS(0) // the pool's default size
	close(c.stopC)
	c.wg.Wait()
	after := scrape(srv)
	d := func(name string) float64 { return after[name] - c.before[name] }
	hits, misses := d("relpipe_cache_hits_total"), d("relpipe_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	reqs := float64(max(requests, 1))
	gcs := float64(ms1.NumGC - ms0.NumGC)
	pause := 0.0
	if gcs > 0 {
		pause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / gcs / 1e6
	}
	return []metric{
		{"service.cache_hit_ratio", "ratio", ratio, fmt.Sprintf("(%.0f hits, %.0f misses)", hits, misses)},
		{"service.cache_evictions", "count", d("relpipe_cache_evictions_total"), ""},
		{"service.dedup_joins", "count", d("relpipe_dedup_joins_total"), fmt.Sprintf("(dedup.wait p50 %.3g ms over %d spans)", c.dedup.quantile(0.5), c.dedup.count())},
		{"service.batch_coalesced", "count", d("relpipe_solve_batch_coalesced_total"), fmt.Sprintf("(%.0f table builds)", d("relpipe_solve_batch_tables_built_total"))},
		{"service.rejected_429", "count", float64(rejectedCount(srv) - c.rejected), ""},
		{"service.pool_busy_ratio", "ratio", d("relpipe_solve_duration_seconds_sum") / elapsed.Seconds() / float64(workers), fmt.Sprintf("(solve time over %d workers × timed phase)", workers)},
		{"service.queue_wait_ms", "ms", c.queue.quantile(0.99), fmt.Sprintf("(p99 of %d queue.wait spans; p50 %.3g ms)", c.queue.count(), c.queue.quantile(0.5))},
		{"runtime.allocs_per_req", "count", float64(ms1.Mallocs-ms0.Mallocs) / reqs, "(whole process, timed phase)"},
		{"runtime.bytes_per_req", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc) / reqs, "(whole process, timed phase)"},
		{"runtime.gc_pause_ms", "ms", pause, fmt.Sprintf("(mean stop-the-world pause over %.0f GCs)", gcs)},
	}
}

// scrape reads the unlabelled samples of the Prometheus exposition.
func scrape(srv http.Handler) map[string]float64 {
	rw := newRespWriter()
	out := map[string]float64{}
	if serve(srv, rw, "GET", "/metrics", nil) != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(&rw.body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// rejectedCount reads the 429 counter through Server.Metrics.
func rejectedCount(srv *service.Server) int64 {
	b, err := json.Marshal(srv.Metrics().Snapshot())
	if err != nil {
		return 0
	}
	var s struct {
		Rejected int64 `json:"rejected"`
	}
	json.Unmarshal(b, &s)
	return s.Rejected
}

// span is one recorded interval of the replay; spans of one body share
// a trace number, and parent 0 marks the body's root span.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// maxSpans bounds the spans kept in memory and written out.
const maxSpans = 8192

// tracer keeps the replay's spans and per-layer samples in memory.
type tracer struct {
	origin  time.Time
	spans   []span
	nextID  int
	samples map[string][]float64
}

func (t *tracer) add(trace, parent int, name string, start, end time.Time) int {
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{trace, t.nextID, parent, name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()})
	}
	return t.nextID
}

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) median(name string) float64 { return median(t.samples[name]) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replay runs 2×w.replay stream bodies after the timed phase,
// alternating two kinds: an untraced body times ServeHTTP alone; a
// traced body wraps spans around each layer call and around ServeHTTP
// of the same body. Their ServeHTTP medians give the tracing overhead.
func replay(srv *service.Server, w *workload, ck *checker, spansDir string, seed uint64) ([]metric, error) {
	// The replay's own cache starts the way the server's did after
	// set-up: holding the warm-up list's keys (hit-envelope's whole pool).
	cache := service.NewCache(1024)
	for _, rq := range w.warm {
		cache.Put(cacheKey(rq, rq.sp.instance().Canonical()), []byte("primed"))
	}
	rw := newRespWriter()
	var plain []float64
	tr := &tracer{origin: time.Now(), samples: map[string][]float64{}}
	var allocs []float64
	var iters, accepted, reps int64
	var simSeconds float64
	for i := 0; i < 2*w.replay; i++ {
		rq := w.next()
		if i%2 == 0 {
			t0 := time.Now()
			status := serve(srv, rw, "POST", rq.path, rq.data)
			plain = append(plain, us(time.Since(t0)))
			if err := ck.check(rq, status, rw.body.Bytes()); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			continue
		}
		bodyStart, root := time.Now(), len(tr.spans)
		body := tr.add(i+1, 0, "body", bodyStart, bodyStart)
		// timed runs f inside a span; names ending in _us also keep the
		// duration as a per-layer sample.
		timed := func(name string, f func()) time.Duration {
			t0 := time.Now()
			f()
			t1 := time.Now()
			tr.add(i+1, body, name, t0, t1)
			if strings.HasSuffix(name, "_us") {
				tr.sample(name, us(t1.Sub(t0)))
			}
			return t1.Sub(t0)
		}

		var dto *spec
		var err error
		decode := timed("relpipe.decode_us", func() { dto, err = decodeSpec(rq) })
		if err != nil {
			return nil, fmt.Errorf("replay: decode: %w", err)
		}
		in := dto.instance()
		var canon string
		canonical := timed("relpipe.canonical_us", func() { canon = in.Canonical() })
		if len(allocs) < 8 {
			allocs = append(allocs, testing.AllocsPerRun(20, func() { _ = in.Canonical() }))
		}
		key := cacheKey(rq, canon)
		var hit bool
		get := timed("service.cache_get_us", func() { _, hit = cache.Get(key) })

		var stages []obs.StageEvent
		ctx := obs.WithStageObserver(context.Background(), func(e obs.StageEvent) { stages = append(stages, e) })
		var resp any
		solve := timed("solve", func() { resp, err = dto.solve(ctx) })
		if err != nil {
			return nil, fmt.Errorf("replay: solve: %w", err)
		}
		switch rq.sp.kind {
		case "optimize":
			if dto.opt.Method == "heuristic" {
				tr.sample("search.optimize_ms", solve.Seconds()*1e3)
				tables := timed("heur.tables", func() { relpipe.BuildHeuristicTables(in) })
				tr.sample("heur.tables_ms", tables.Seconds()*1e3)
			}
		case "evaluate":
			tr.sample("mapping.evaluate_us", us(solve))
		}
		for _, e := range stages {
			switch e.Name {
			case "search.seed":
				tr.sample("search.seed_ms", e.Duration.Seconds()*1e3)
			case "search.anneal":
				tr.sample("search.anneal_ms", e.Duration.Seconds()*1e3)
				tr.sample("search.iterations", float64(e.Units))
				iters += e.Units
				a, _ := strconv.ParseInt(e.Attrs["accepted"], 10, 64)
				accepted += a
			case "sim.batch":
				tr.sample("sim.batch_ms", e.Duration.Seconds()*1e3)
				reps += e.Units
				simSeconds += e.Duration.Seconds()
			}
		}
		var out []byte
		marshal := timed("service.marshal_us", func() { out, err = json.Marshal(resp) })
		if err != nil {
			return nil, fmt.Errorf("replay: marshal: %w", err)
		}
		var put time.Duration
		if !hit {
			put = timed("service.cache_put_us", func() { cache.Put(key, out) })
		}

		hits := srv.Metrics().CacheHits()
		var status int
		serveD := timed("service.serve_us", func() { status = serve(srv, rw, "POST", rq.path, rq.data) })
		if err := ck.check(rq, status, rw.body.Bytes()); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		layers := decode + canonical + get
		if srv.Metrics().CacheHits() == hits {
			layers += solve + marshal + put
		}
		tr.sample("service.envelope_self_us", us(serveD-layers))
		if root < len(tr.spans) {
			tr.spans[root].End = time.Since(tr.origin).Nanoseconds()
		}
	}

	if spansDir != "" {
		if err := writeSpans(filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed)), tr.spans); err != nil {
			return nil, err
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	traced := tr.median("service.serve_us")
	untraced := median(plain)
	n := func(name string) string { return fmt.Sprintf("(median of %d)", len(tr.samples[name])) }
	return []metric{
		{"relpipe.decode_us", "us", tr.median("relpipe.decode_us"), n("relpipe.decode_us")},
		{"relpipe.canonical_us", "us", tr.median("relpipe.canonical_us"), n("relpipe.canonical_us")},
		{"relpipe.canonical_allocs", "count", median(allocs), fmt.Sprintf("(median over %d instances)", len(allocs))},
		{"service.serve_us", "us", traced, n("service.serve_us")},
		{"service.envelope_self_us", "us", tr.median("service.envelope_self_us"), n("service.envelope_self_us")},
		{"service.cache_get_us", "us", tr.median("service.cache_get_us"), n("service.cache_get_us")},
		{"service.cache_put_us", "us", tr.median("service.cache_put_us"), n("service.cache_put_us")},
		{"service.marshal_us", "us", tr.median("service.marshal_us"), n("service.marshal_us")},
		{"search.optimize_ms", "ms", tr.median("search.optimize_ms"), n("search.optimize_ms")},
		{"search.iterations", "count", tr.median("search.iterations"), n("search.iterations")},
		{"search.accept_ratio", "ratio", ratio(float64(accepted), float64(iters)), fmt.Sprintf("(%d accepted of %d iterations)", accepted, iters)},
		{"search.seed_ms", "ms", tr.median("search.seed_ms"), n("search.seed_ms")},
		{"search.anneal_ms", "ms", tr.median("search.anneal_ms"), n("search.anneal_ms")},
		{"heur.tables_ms", "ms", tr.median("heur.tables_ms"), n("heur.tables_ms")},
		{"mapping.evaluate_us", "us", tr.median("mapping.evaluate_us"), n("mapping.evaluate_us")},
		{"sim.batch_ms", "ms", tr.median("sim.batch_ms"), n("sim.batch_ms")},
		{"sim.replications_per_s", "1/s", ratio(float64(reps), simSeconds), fmt.Sprintf("(%d replications)", reps)},
		{"trace.overhead_pct", "%", 100 * ratio(traced-untraced, untraced), fmt.Sprintf("(ServeHTTP median traced %.4g us vs untraced %.4g us)", traced, untraced)},
	}, nil
}

// cacheKey is the replay cache's key for a body: kind, canonical
// instance, and a digest standing in for the knobs the server appends.
func cacheKey(rq request, canonical string) string {
	return rq.sp.kind + "|" + canonical + "|" + strconv.FormatUint(fnv64(rq.data), 16)
}

// decodeSpec decodes a body into its request DTO, as the server's
// handler does.
func decodeSpec(rq request) (*spec, error) {
	sp := &spec{kind: rq.sp.kind}
	switch sp.kind {
	case "optimize":
		sp.opt = new(relpipe.OptimizeRequest)
	case "evaluate":
		sp.eval = new(relpipe.EvaluateRequest)
	default:
		sp.sim = new(relpipe.SimulateRequest)
	}
	return sp, json.Unmarshal(rq.data, sp.dto())
}

// solve calls the library the way the server's solve closure does, at
// the server's per-request parallelism of 1 (two workers on two cores).
func (sp *spec) solve(ctx context.Context) (any, error) {
	opts := relpipe.Options{Parallelism: 1, Context: ctx}
	switch sp.kind {
	case "optimize":
		m, err := relpipe.ParseMethod(sp.opt.Method)
		if err != nil {
			return nil, err
		}
		if s := sp.opt.Search; s != nil {
			opts.Restarts, opts.Budget, opts.Seed = s.Restarts, s.Budget, s.Seed
		}
		sol, err := relpipe.OptimizeWith(sp.opt.Instance, sp.opt.Bounds, m, opts)
		return relpipe.OptimizeResponse{Solution: sol}, err
	case "evaluate":
		ev, err := relpipe.Evaluate(sp.eval.Instance, sp.eval.Mapping)
		return relpipe.EvaluateResponse{Eval: ev}, err
	}
	return simulateLibrary(sp.sim, opts)
}

func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
