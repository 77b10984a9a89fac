// Package metrics provides the measurement plumbing for the evaluation
// harness: time series of sampled values (the figures' curves), striped
// counters, and a bounded latency recorder with percentiles.
package metrics

import (
	"sort"
	"sync"
	"time"
)

// Point is one sample: elapsed time since sampling began, and a value.
type Point struct {
	Elapsed time.Duration
	Value   float64
}

// Series is a sequence of samples in time order.
type Series struct {
	Points []Point
}

// Add appends the sample v taken at elapsed time at.
func (s *Series) Add(at time.Duration, v float64) {
	s.Points = append(s.Points, Point{Elapsed: at, Value: v})
}

// Last returns the most recent value (0 for an empty series).
func (s Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Value
}

// Mean returns the average sampled value.
func (s Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// DefaultHistogramCap is the reservoir size a zero-value Histogram uses.
// 4096 samples keep p99 estimates stable while bounding a per-request
// recorder on a long-running server to a fixed footprint.
const DefaultHistogramCap = 4096

// Histogram is a bounded latency recorder with percentile queries. It keeps
// an exact count and sum (so Count and Mean never degrade) and a fixed-size
// uniform reservoir of observations (Vitter's Algorithm R) for percentiles,
// so recording every request of a long-running server cannot grow memory
// without limit. The zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	cap     int
	count   int64
	sum     time.Duration
	samples []time.Duration
	rng     uint64
}

// NewHistogram creates a histogram with an explicit reservoir capacity
// (<=0 selects DefaultHistogramCap).
func NewHistogram(capacity int) *Histogram {
	if capacity <= 0 {
		capacity = DefaultHistogramCap
	}
	return &Histogram{cap: capacity}
}

// next is a splitmix64 step — a cheap in-lock PRNG for reservoir slots; the
// fixed seed keeps tests deterministic.
func (h *Histogram) next() uint64 {
	h.rng += 0x9e3779b97f4a7c15
	z := h.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	if h.cap <= 0 {
		h.cap = DefaultHistogramCap
	}
	h.count++
	h.sum += d
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
	} else if idx := h.next() % uint64(h.count); idx < uint64(h.cap) {
		h.samples[idx] = d
	}
	h.mu.Unlock()
}

// Count returns the total number of observations recorded (not the reservoir
// occupancy).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Mean returns the exact average over every recorded observation.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns the p-th percentile (0 < p <= 100), estimated from the
// reservoir once more than cap observations have been recorded.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Samples returns a copy of the retained observations. Up to the reservoir
// capacity this is every observation in arrival order; beyond it, a uniform
// sample of the full stream.
func (h *Histogram) Samples() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]time.Duration(nil), h.samples...)
}
