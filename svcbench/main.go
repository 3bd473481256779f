// Command svcbench is relpipe's end-to-end service benchmark. It builds
// a service.Server with the options cmd/serve ships by default, drives
// its ServeHTTP in-process with one of three seeded workloads, checks
// every response against the library, and prints each metric by name
// with its unit, then one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 the run adds a traced replay and the JSON carries the
// per-layer metrics. See README.md for the workloads and the layer map.
//
// Usage (from the repository root):
//
//	bash svcbench/run.sh --workload hit-envelope --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relpipe"
	"relpipe/internal/service"
)

// setupReps is how many times each run builds a server and sends the
// warm-up list; setup_s is their median.
const setupReps = 5

// maxInflight caps the open loop's concurrent requests; an arrival
// beyond it counts as a failed (timed-out) request.
const maxInflight = 1024

func main() {
	workload := flag.String("workload", "", "hit-envelope, miss-search or zipf-open")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory the traced replay writes its spans to (empty: not written)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "svcbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spansDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, *trace == 1)
}

// serveDefaults are cmd/serve's flag defaults, with its text request
// logger writing to io.Discard.
func serveDefaults() service.Options {
	return service.Options{
		CacheSize:      1024,
		RequestTimeout: 30 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	note       string
}

type report struct {
	header     string
	attempted  int64
	failed     int64
	wrong      int64
	flags      []string
	endToEnd   []metric
	perLayer   []metric
	firstError string
}

func (r *report) print(out io.Writer, traced bool) {
	fmt.Fprintln(out, r.header)
	section := func(title string, ms []metric) {
		fmt.Fprintln(out, title)
		for _, m := range ms {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	section("end-to-end:", r.endToEnd)
	if traced {
		section("per-layer (traced run):", r.perLayer)
	}
	for _, f := range r.flags {
		fmt.Fprintln(out, "FLAG:", f)
	}
	if r.firstError != "" {
		fmt.Fprintln(out, "first failure:", r.firstError)
	}
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range ms {
		vals[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.wrong == 0 && len(r.flags) == 0, r.attempted, r.failed, vals})
	fmt.Fprintln(out, string(b))
}

// phase tallies the timed requests. Latencies also go into one
// histogram per window of the timed phase; the reported percentiles are
// interquartile means over the full windows, so one stall of the shared
// machine moves one window instead of the run's tail.
type phase struct {
	lat   hist
	limit time.Duration
	start time.Time
	wins  []*hist

	mu         sync.Mutex
	attempted  int64
	failed     int64
	wrong      int64
	good       int64
	firstError string
}

// done records one request: a non-200 or a failed check is a failure
// (a failed check on a 200 is also a wrong answer), and a failure
// counts as missing every latency limit.
func (p *phase) done(sent time.Time, lat time.Duration, status int, err error) {
	if err != nil {
		lat = time.Duration(math.MaxInt64)
	}
	p.lat.record(lat)
	if i := int(sent.Sub(p.start) / window); i >= 0 && i < len(p.wins) {
		p.wins[i].record(lat)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tally(status, err) && lat <= p.limit {
		p.good++
	}
}

// tally counts one request, timed or not, and reports whether it
// succeeded. The caller holds p.mu.
func (p *phase) tally(status int, err error) bool {
	p.attempted++
	if err == nil {
		return true
	}
	p.failed++
	if status == http.StatusOK {
		p.wrong++
	}
	if p.firstError == "" {
		p.firstError = err.Error()
	}
	return false
}

// window is the length of one latency window; a window counts only when
// it holds at least minWindowSamples samples (the last, partial one
// usually does not).
const (
	window           = 2500 * time.Millisecond
	minWindowSamples = 500
)

func newPhase(limit, dur time.Duration) *phase {
	p := &phase{limit: limit}
	for i := time.Duration(0); i < dur; i += window {
		p.wins = append(p.wins, new(hist))
	}
	return p
}

// quantile is the interquartile mean over the full windows of each
// window's q-quantile, and how many windows and samples it rests on.
// A window's p99 rests on about ten samples, so it is noisy; the mean
// of the middle half averages more windows than a median while still
// dropping the stalled ones.
func (p *phase) quantile(q float64) (ms float64, windows int, samples uint64) {
	var qs []float64
	for _, h := range p.wins {
		if n := h.count(); n >= minWindowSamples {
			qs = append(qs, h.quantile(q))
			samples += n
		}
	}
	if len(qs) == 0 {
		return p.lat.quantile(q), 1, p.lat.count()
	}
	return midMean(qs), len(qs), samples
}

// midMean is the mean of the middle half of xs (the interquartile mean).
func midMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

var errOverload = errors.New("open loop: more than maxInflight requests outstanding")

func run(name string, seed uint64, dur time.Duration, traced bool, spansDir string) (*report, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	ck := newChecker()
	rep := &report{header: fmt.Sprintf("svcbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d",
		name, seed, dur.Seconds(), traced, runtime.GOMAXPROCS(0))}

	// Set-up: NewServer plus the warm-up list, timed setupReps times on
	// fresh servers; the last one serves the timed phase. Responses are
	// checked after each clock stops.
	var setups []float64
	var srv *service.Server
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		var d time.Duration
		var resps []captured
		srv, d, resps = setUp(w)
		setups = append(setups, d.Seconds())
		for i, c := range resps {
			if err := ck.check(w.warm[i], c.status, c.body); err != nil {
				rep.wrong++
				rep.firstError = "warm-up: " + err.Error()
			}
		}
	}
	defer srv.Close()

	// Timed phase.
	ph := newPhase(w.limit, dur)
	var col *collector
	if traced {
		col = startCollector(srv)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var elapsed time.Duration
	var lag hist
	if w.rate == 0 {
		elapsed = closedLoop(srv, w, ck, dur, ph)
	} else {
		var backlog []int64
		elapsed, backlog, err = openLoop(srv, w, ck, dur, ph, &lag)
		if err != nil {
			return nil, err
		}
		if grew(backlog) {
			rep.flags = append(rep.flags, fmt.Sprintf("open-loop backlog grew during the timed phase (outstanding per second: %v)", backlog))
		}
		if p99 := lag.quantile(0.99); p99 > maxGenLagMs {
			rep.flags = append(rep.flags, fmt.Sprintf("generator ran late: p99 lag %.3g ms > %g ms", p99, float64(maxGenLagMs)))
		}
	}
	runtime.ReadMemStats(&ms1)
	var layers []metric
	if col != nil {
		layers = col.stop(srv, ph.attempted, elapsed, &ms0, &ms1)
	}

	// Verification set: untimed, every response checked in full.
	var nines float64
	rw := newRespWriter()
	for _, rq := range w.verify {
		status := serve(srv, rw, "POST", rq.path, rq.data)
		fp, err := verifyOptimize(rq, status, rw.body.Bytes())
		ph.mu.Lock()
		ph.tally(status, err)
		ph.mu.Unlock()
		nines += -math.Log10(fp)
	}

	rep.attempted, rep.failed, rep.wrong = ph.attempted, ph.failed, rep.wrong+ph.wrong
	if rep.firstError == "" {
		rep.firstError = ph.firstError
	}
	p50, wins, n := ph.quantile(0.5)
	p99, _, _ := ph.quantile(0.99)
	perWin := n / uint64(wins)
	rep.endToEnd = []metric{
		{"setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups of %d warm-up requests)", setupReps, len(w.warm))},
		{"goodput_rps", "1/s", float64(ph.good) / elapsed.Seconds(), fmt.Sprintf("(%d good of %d timed+verify requests, limit %v)", ph.good, ph.attempted, w.limit)},
		{"latency_p50_ms", "ms", p50, fmt.Sprintf("(interquartile mean over %d windows of %v of each window's p50; %d samples)", wins, window, n)},
		{"latency_p99_ms", "ms", p99, fmt.Sprintf("(interquartile mean over %d windows of each window's p99; ~%d samples and ~%d beyond per window)", wins, perWin, perWin/100)},
		{"success_ratio", "ratio", float64(ph.attempted-ph.failed) / float64(ph.attempted), ""},
		{"peak_rss_mb", "MB", peakRSSMB(), "(VmHWM of the harness process)"},
		{"failprob_nines", "nines", nines / float64(len(w.verify)), fmt.Sprintf("(mean -log10(1-R) over %d verification responses)", len(w.verify))},
	}
	if w.rate > 0 {
		rep.endToEnd[1].note += fmt.Sprintf(", offered %g/s, generator lag p99 %.3g ms", w.rate, lag.quantile(0.99))
	}

	if traced {
		layers = append(layers, metric{"load.gen_lag_ms", "ms", lag.quantile(0.99), fmt.Sprintf("(p99 of %d arrivals; 0 in a closed loop)", lag.count())})
		rl, err := replay(srv, w, ck, spansDir, seed)
		if err != nil {
			return nil, err
		}
		rep.perLayer = append(layers, rl...)
	}
	return rep, nil
}

// maxGenLagMs is the p99 generator lag beyond which an open-loop run is
// invalid: its arrivals no longer follow the seeded schedule.
const maxGenLagMs = 20

type captured struct {
	status int
	body   []byte
}

// setUp builds a server and sends the warm-up list back-to-back from one
// client; the clock runs from NewServer to the last warm-up response.
func setUp(w *workload) (*service.Server, time.Duration, []captured) {
	rw := newRespWriter()
	out := make([]captured, len(w.warm))
	t0 := time.Now()
	srv := service.NewServer(serveDefaults())
	for i, rq := range w.warm {
		status := serve(srv, rw, "POST", rq.path, rq.data)
		out[i] = captured{status, bytes.Clone(rw.body.Bytes())}
	}
	return srv, time.Since(t0), out
}

// closedLoop is one client sending the stream back-to-back until dur
// has passed. It returns the elapsed time of the phase.
func closedLoop(h http.Handler, w *workload, ck *checker, dur time.Duration, ph *phase) time.Duration {
	rw := newRespWriter()
	start := time.Now()
	ph.start = start
	deadline := start.Add(dur)
	for {
		rq := w.next()
		t0 := time.Now()
		if !t0.Before(deadline) {
			return t0.Sub(start)
		}
		status := serve(h, rw, "POST", rq.path, rq.data)
		lat := time.Since(t0)
		ph.done(t0, lat, status, ck.check(rq, status, rw.body.Bytes()))
	}
}

// openLoop sends the stream on a seeded Poisson schedule for dur. Each
// request's latency runs from its intended send time, so a late
// generator or a stalled server shows in the latencies of every request
// behind it. lag records how late each arrival was dispatched; the
// returned slice is the outstanding-request count at each second.
func openLoop(h http.Handler, w *workload, ck *checker, dur time.Duration, ph *phase, lag *hist) (time.Duration, []int64, error) {
	timer, err := newArrivalTimer()
	if err != nil {
		return 0, nil, err
	}
	defer timer.close()
	writers := sync.Pool{New: func() any { return newRespWriter() }}
	var wg sync.WaitGroup
	defer wg.Wait()
	var inflight atomic.Int64
	var backlog []int64
	start := time.Now()
	ph.start = start
	t := 0.0
	for {
		t += w.arrive.Exp(w.rate)
		if t >= dur.Seconds() {
			break
		}
		for float64(len(backlog)+1) <= t {
			backlog = append(backlog, inflight.Load())
		}
		intended := start.Add(time.Duration(t * 1e9))
		if err := timer.sleepUntil(intended); err != nil {
			return 0, nil, err
		}
		lag.record(time.Since(intended))
		rq := w.next()
		if inflight.Load() >= maxInflight {
			ph.done(intended, 0, 0, errOverload)
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			rw := writers.Get().(*respWriter)
			status := serve(h, rw, "POST", rq.path, rq.data)
			lat := time.Since(intended)
			ph.done(intended, lat, status, ck.check(rq, status, rw.body.Bytes()))
			writers.Put(rw)
		}()
	}
	return dur, backlog, nil
}

// grew reports whether the outstanding-request count rose during the
// timed phase: the last quarter's mean well above the first quarter's.
func grew(backlog []int64) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int64) float64 {
		s := 0.0
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(backlog[len(backlog)-q:]) > 2*mean(backlog[:q])+8
}

// verifyOptimize checks one verification response in full and returns
// the failure probability of its mapping.
func verifyOptimize(rq request, status int, body []byte) (float64, error) {
	if status != http.StatusOK {
		return 1, fmt.Errorf("verify: status %d: %s", status, body)
	}
	var resp relpipe.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 1, fmt.Errorf("verify: decode: %w", err)
	}
	fp, err := checkSolution(rq.sp.opt, resp.Solution)
	if err != nil {
		return 1, err
	}
	if fp <= 0 {
		return 1, fmt.Errorf("verify: failure probability %g is not positive", fp)
	}
	return fp, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
