package gc

import (
	"sync"
	"time"

	"hybridgc/internal/txn"
)

// Periods configures the independent invocation periods of the three
// collectors HybridGC combines (§4.4). A zero period disables that
// collector. The paper's defaults are 1 s for GT, 3 s for TG and 10 s for
// SI; experiments time-compress these.
type Periods struct {
	GT time.Duration
	TG time.Duration
	SI time.Duration
}

// DefaultPeriods mirrors the paper's configuration at 1/10 time scale so
// laptop-scale runs exercise the same ratios.
func DefaultPeriods() Periods {
	return Periods{GT: 100 * time.Millisecond, TG: 300 * time.Millisecond, SI: time.Second}
}

// Hybrid is the HybridGC of §4.4: the global group collector (GT), the table
// collector (TG) and the interval collector (SI) invoked independently, each
// with its own period. When TG or SI fires it internally executes GT first,
// then handles the remainder, exactly as the paper specifies. Collections
// are serialized on one latch; versions are reclaimed concurrently with
// transaction processing.
type Hybrid struct {
	GT *GroupTimestamp
	TG *TableGC
	SI *Interval

	periods Periods

	mu      sync.Mutex // serializes collector passes
	startMu sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
	running bool
}

// NewHybrid builds a HybridGC over m. threshold is TG's long-lived snapshot
// cutoff (<=0 picks the default).
func NewHybrid(m *txn.Manager, periods Periods, threshold time.Duration) *Hybrid {
	return &Hybrid{
		GT:      NewGroupTimestamp(m),
		TG:      NewTableGC(m, threshold),
		SI:      NewInterval(m),
		periods: periods,
	}
}

// Name implements Collector.
func (h *Hybrid) Name() string { return "HG" }

// Collect implements Collector: one full hybrid pass, GT then TG then SI —
// the execution order of §4.4 — regardless of periods. Used by tests and by
// callers that drive collection manually.
func (h *Hybrid) Collect() RunStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.GT.Collect()
	st.Collector = h.Name()
	st.add(h.TG.Collect())
	st.add(h.SI.Collect())
	return st
}

// RunGT runs only the group collector — unless another pass holds the
// latch, in which case it returns an empty RunStats at once. Every pass
// begins with GT, so waiting would only queue a second GT pass right behind
// the first: under a pinned horizon the GT ticker spent a tenth of its time
// parked behind TG and SI passes to then reclaim nothing.
func (h *Hybrid) RunGT() RunStats {
	if !h.mu.TryLock() {
		return RunStats{}
	}
	defer h.mu.Unlock()
	return h.GT.Collect()
}

// RunTG runs the table collector, preceded by the group collector as §4.4
// prescribes ("when the table garbage collector or the interval garbage
// collector is invoked, it internally executes the global group garbage
// collector first").
func (h *Hybrid) RunTG() RunStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.GT.Collect()
	return h.TG.Collect()
}

// RunSI runs the interval collector, preceded by the group collector.
func (h *Hybrid) RunSI() RunStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.GT.Collect()
	return h.SI.Collect()
}

// Start launches the periodic invocations. Collectors with a zero period
// stay disabled. Start is idempotent while running.
func (h *Hybrid) Start() {
	h.startMu.Lock()
	defer h.startMu.Unlock()
	if h.running {
		return
	}
	h.running = true
	h.stop = make(chan struct{})
	launch := func(period time.Duration, run func() RunStats) {
		if period <= 0 {
			return
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					run()
				case <-h.stop:
					return
				}
			}
		}()
	}
	launch(h.periods.GT, h.RunGT)
	launch(h.periods.TG, h.RunTG)
	launch(h.periods.SI, h.RunSI)
}

// Stop halts the periodic invocations and waits for in-flight passes.
func (h *Hybrid) Stop() {
	h.startMu.Lock()
	defer h.startMu.Unlock()
	if !h.running {
		return
	}
	close(h.stop)
	h.wg.Wait()
	h.running = false
}

// ReclaimedByGT returns GT's lifetime reclaimed-version count (Figure 11).
func (h *Hybrid) ReclaimedByGT() int64 { return h.GT.Totals.Versions() }

// ReclaimedByTG returns TG's lifetime reclaimed-version count (Figure 11).
func (h *Hybrid) ReclaimedByTG() int64 { return h.TG.Totals.Versions() }

// ReclaimedBySI returns SI's lifetime reclaimed-version count (Figure 11).
func (h *Hybrid) ReclaimedBySI() int64 { return h.SI.Totals.Versions() }
