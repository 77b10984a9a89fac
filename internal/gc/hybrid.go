package gc

import (
	"sync"
	"time"

	"hybridgc/internal/txn"
)

// Periods enables the three collectors HybridGC combines (§4.4) and sets how
// long each may sit idle. A zero period disables that collector. A non-zero
// one is its idle fallback: the collector loop runs it when that long has
// passed since its last run without anything else having woken the loop.
// Under load the loop is woken by work (see Hybrid), and the periods only
// matter when little is happening. The paper's invocation periods are 1 s
// for GT, 3 s for TG and 10 s for SI; experiments time-compress these.
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

// batchVersions is how many freshly published versions wake the collector
// loop. A loop woken for every handful of versions is a busy poll on the
// cores the workers want; a large batch keeps versions waiting for company.
// The recorded sweep (CHANGES.md, PR 19: 32 … 32768 on htap_pin and
// oltp_mem, two seeds each) predates the one-scan pass — a pass then cost a
// scan of the announcement array per table on top — and has not been redone.
// It is flat in both version_residence_ms and txn_per_s from 128 to 512,
// loses throughput at 32 and residence from 1024 up (8192: +5 ms on
// oltp_mem, +11 ms on htap_pin); 512 is the largest value on the flat part.
// What is left of residence there is not the batch: it is the collector
// goroutine waiting for a core on a saturated box, and under a held cursor a
// version waiting for its successor.
const batchVersions = 512

// Hybrid is the HybridGC of §4.4: the global group collector (GT), the table
// collector (TG) and the interval collector (SI). A pass runs them in that
// order — "when the table garbage collector or the interval garbage
// collector is invoked, it internally executes the global group garbage
// collector first" — over one view of the active snapshots, so the three
// decide over one state of the trackers (Fig. 9) and a pass costs one scan of
// the announcement array. Passes are serialized on one latch; versions are
// reclaimed concurrently with transaction processing.
//
// Once started, one goroutine runs the passes, and it is driven by work, not
// by a clock. It wakes when the commit leader has published a batch of
// versions since the last pass, when a snapshot is released whose timestamp
// the group collector found holding at least a batch of versions back, and,
// failing both, when an enabled collector has been idle for its period. All
// three collectors are incremental — GT stops at the horizon, TG and SI look
// only at what is new or newly reclaimable — so a pass costs what it finds,
// and waking often is cheap.
type Hybrid struct {
	GT *GroupTimestamp
	TG *TableGC
	SI *Interval

	m       *txn.Manager
	periods Periods

	mu      sync.Mutex // serializes collector passes
	view    txn.View   // the pass's view, refilled under mu
	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// NewHybrid builds a HybridGC over m. threshold is TG's long-lived snapshot
// cutoff (<=0 picks the default).
func NewHybrid(m *txn.Manager, periods Periods, threshold time.Duration) *Hybrid {
	return &Hybrid{
		GT:      NewGroupTimestamp(m),
		TG:      NewTableGC(m, threshold),
		SI:      NewInterval(m),
		m:       m,
		periods: periods,
	}
}

// Name implements Collector.
func (h *Hybrid) Name() string { return "HG" }

// Collect implements Collector: one full hybrid pass, GT then TG then SI —
// the execution order of §4.4 — regardless of periods. Used by tests, by the
// pressure controller's emergency rung and by callers that drive collection
// manually.
func (h *Hybrid) Collect() RunStats {
	st, tg, si := h.pass(true, true)
	st.Collector = h.Name()
	st.add(tg)
	st.add(si)
	return st
}

// RunGT runs only the group collector.
func (h *Hybrid) RunGT() RunStats {
	st, _, _ := h.pass(false, false)
	return st
}

// RunTG runs the table collector, preceded by the group collector as §4.4
// prescribes.
func (h *Hybrid) RunTG() RunStats {
	_, st, _ := h.pass(true, false)
	return st
}

// RunSI runs the interval collector, preceded by the group collector.
func (h *Hybrid) RunSI() RunStats {
	_, _, st := h.pass(false, true)
	return st
}

// pass takes one view and runs GT and then the collectors asked for over it,
// under the latch. By the time SI runs the view is two collectors old, which
// is safe: no later snapshot sits below its bound, and every collector treats
// what lies above the bound as not its to touch.
func (h *Hybrid) pass(tg, si bool) (gtStats, tgStats, siStats RunStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.m.ViewInto(&h.view)
	gtStats = h.GT.collect(&h.view)
	if tg {
		tgStats = h.TG.collect(&h.view)
	}
	if si {
		siStats = h.SI.collect(&h.view)
	}
	return
}

// Start launches the collector loop. With every period zero there is nothing
// to run and no loop. Start is idempotent while running.
func (h *Hybrid) Start() {
	h.startMu.Lock()
	defer h.startMu.Unlock()
	if h.stop != nil || h.periods.GT <= 0 && h.periods.TG <= 0 && h.periods.SI <= 0 {
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go h.loop(h.m.ListenGC(batchVersions), h.stop, h.done)
}

// Stop halts the loop and waits for a pass in flight.
func (h *Hybrid) Stop() {
	h.startMu.Lock()
	defer h.startMu.Unlock()
	if h.stop == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.m.ListenGC(0)
	h.stop, h.done = nil, nil
}

// loop is the collector goroutine. A ring of the manager's bell means work:
// every enabled collector runs. The timer is the idle fallback: it is set to
// the earliest moment an enabled collector will have sat idle for its period,
// and when it fires only the collectors that have are run — after GT, which
// every pass begins with.
func (h *Hybrid) loop(ring <-chan struct{}, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	periods := [3]time.Duration{h.periods.GT, h.periods.TG, h.periods.SI}
	var due [3]time.Time // when each collector will have been idle for its period
	now := time.Now()
	for i, p := range periods {
		due[i] = now.Add(p)
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		var first time.Time
		for i, p := range periods {
			if p > 0 && (first.IsZero() || due[i].Before(first)) {
				first = due[i]
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(first))

		var run [3]bool
		select {
		case <-stop:
			return
		case <-ring:
			for i, p := range periods {
				run[i] = p > 0
			}
		case now = <-timer.C:
			for i, p := range periods {
				run[i] = p > 0 && !now.Before(due[i])
			}
		}
		h.m.BeginGCPass()
		h.pass(run[1], run[2])
		run[0] = true
		now = time.Now()
		for i, p := range periods {
			if run[i] {
				due[i] = now.Add(p)
			}
		}
	}
}

// ReclaimedByGT returns GT's lifetime reclaimed-version count (Figure 11).
func (h *Hybrid) ReclaimedByGT() int64 { return h.GT.Totals.Versions() }

// ReclaimedByTG returns TG's lifetime reclaimed-version count (Figure 11).
func (h *Hybrid) ReclaimedByTG() int64 { return h.TG.Totals.Versions() }

// ReclaimedBySI returns SI's lifetime reclaimed-version count (Figure 11).
func (h *Hybrid) ReclaimedBySI() int64 { return h.SI.Totals.Versions() }
