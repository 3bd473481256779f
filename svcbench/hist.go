package main

import (
	"math"
	"sync"
	"time"
)

// hist is a fixed-memory latency recorder: log-spaced buckets 0.5%
// wide from 1 µs to about 1000 s. Its size does not depend on how many
// samples a run records, so a faster program that completes more
// requests does not read worse on peak_rss_mb. Each bucket keeps the
// sum of its samples, so a percentile reads the mean of the samples in
// its bucket rather than a quantised bucket edge.
type hist struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	sums   [histBuckets]float64
	n      uint64
}

const (
	histBuckets = 4200
	histGrowth  = 1.005
)

var histLogGrowth = math.Log(histGrowth)

func (h *hist) record(d time.Duration) {
	b := 0
	if us := float64(d) / 1e3; us > 1 {
		b = min(int(math.Log(us)/histLogGrowth), histBuckets-1)
	}
	h.mu.Lock()
	h.counts[b]++
	h.sums[b] += float64(d)
	h.n++
	h.mu.Unlock()
}

// quantile returns the q-quantile in milliseconds (0 with no samples).
func (h *hist) quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.sums[b] / float64(c) / 1e6
		}
	}
	return 0
}

func (h *hist) count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}
