package metrics

import (
	"testing"
	"time"
)

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := len(h.Samples()); got != 100 {
		t.Fatalf("samples = %d", got)
	}
}

func TestHistogramBounded(t *testing.T) {
	h := NewHistogram(256)
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if got := len(h.Samples()); got != 256 {
		t.Fatalf("reservoir holds %d samples, want 256", got)
	}
	// Mean is exact regardless of the reservoir: sum of 1..n µs over n.
	want := time.Duration(n) * (n + 1) / 2 * time.Microsecond / n
	if got := h.Mean(); got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// The median estimate must land near the true median of the uniform
	// stream; a 256-sample reservoir is within a few percent with this seed,
	// 20% leaves slack without letting a broken reservoir pass.
	p50 := h.Percentile(50)
	trueMedian := time.Duration(n/2) * time.Microsecond
	lo, hi := trueMedian*8/10, trueMedian*12/10
	if p50 < lo || p50 > hi {
		t.Fatalf("p50 = %v outside [%v, %v]", p50, lo, hi)
	}
	// The reservoir must not be a prefix: late observations have to appear.
	var late int
	for _, d := range h.Samples() {
		if d > time.Duration(256)*time.Microsecond {
			late++
		}
	}
	if late == 0 {
		t.Fatal("reservoir never replaced an early sample")
	}
}

func TestHistogramZeroValueBounded(t *testing.T) {
	var h Histogram
	for i := 0; i < DefaultHistogramCap+1000; i++ {
		h.Record(time.Millisecond)
	}
	if got := len(h.Samples()); got != DefaultHistogramCap {
		t.Fatalf("zero-value reservoir holds %d, want %d", got, DefaultHistogramCap)
	}
	if h.Count() != DefaultHistogramCap+1000 {
		t.Fatalf("count = %d", h.Count())
	}
}
