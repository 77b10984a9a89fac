package core

import (
	"errors"
	"sync/atomic"
	"time"

	"hybridgc/internal/txn"
)

// ErrVersionPressure reports a write rejected because the version space is
// over its soft watermark, emergency collection could not relieve it, and the
// writer's bounded wait expired. Transient: callers should retry (see Retry),
// since collection or snapshot eviction usually frees space shortly after.
var ErrVersionPressure = errors.New("core: write rejected under version-space pressure")

// VersionBudget bounds the version space. The paper's Figure 2 shows the
// unbounded alternative: when GC is blocked, the version count and commit
// timestamp range grow without limit until the system becomes unavailable.
// With a budget configured the engine degrades gracefully instead, along an
// escalation ladder (see pressure).
type VersionBudget struct {
	// Soft is the live-version count that triggers emergency out-of-period
	// collection. <=0 derives Hard/2.
	Soft int64
	// Hard is the live-version count the engine defends by force: sustained
	// pressure above Soft applies writer backpressure, and crossing Hard
	// evicts the oldest pinning snapshots. <=0 derives 2*Soft.
	Hard int64
	// MaxWriterWait bounds how long a writer blocks under backpressure before
	// failing with ErrVersionPressure. <=0 selects 100ms.
	MaxWriterWait time.Duration
	// EvictAfter bounds how long the engine tolerates sustained over-soft
	// pressure before evicting pinning snapshots even below the hard
	// watermark. Backpressure freezes the live count wherever rejection set
	// in — possibly below Hard — so without a time bound an unreachable hard
	// watermark would mean rejecting writes forever while a forgotten cursor
	// pins the space. <=0 selects 2*MaxWriterWait.
	EvictAfter time.Duration
}

func (b *VersionBudget) enabled() bool { return b.Soft > 0 || b.Hard > 0 }

func (b *VersionBudget) fill() {
	if b.Soft <= 0 {
		b.Soft = b.Hard / 2
	}
	if b.Hard <= 0 {
		b.Hard = 2 * b.Soft
	}
	if b.Hard < b.Soft {
		b.Hard = b.Soft
	}
	if b.MaxWriterWait <= 0 {
		b.MaxWriterWait = 100 * time.Millisecond
	}
	if b.EvictAfter <= 0 {
		b.EvictAfter = 2 * b.MaxWriterWait
	}
}

// PressureLevel is the degradation ladder's current rung.
type PressureLevel int32

const (
	// PressureNormal: live versions below the soft watermark.
	PressureNormal PressureLevel = iota
	// PressureSoft: the soft watermark was crossed; emergency out-of-period
	// collection is running but still keeping up.
	PressureSoft
	// PressureBackpressure: emergency collection cannot get back under the
	// soft watermark (something pins the versions); writers wait, bounded,
	// then fail with ErrVersionPressure.
	PressureBackpressure
	// PressureEvict: the hard watermark was crossed; the controller
	// force-closes the oldest pinning snapshots (ErrSnapshotKilled for their
	// owners) until collection can free space again.
	PressureEvict
)

// String implements fmt.Stringer.
func (l PressureLevel) String() string {
	switch l {
	case PressureSoft:
		return "soft"
	case PressureBackpressure:
		return "backpressure"
	case PressureEvict:
		return "evict"
	default:
		return "normal"
	}
}

// PressureStats is a point-in-time view of the version-budget controller.
type PressureStats struct {
	Enabled     bool
	Level       PressureLevel
	Soft        int64
	Hard        int64
	Live        int64
	Utilization float64 // Live / Hard
	// Ladder transition and action counters.
	SoftTrips     int64 // normal -> over-soft transitions
	Emergencies   int64 // emergency out-of-period collection passes
	Backpressured int64 // writers that entered the bounded wait
	Rejected      int64 // writers that timed out with ErrVersionPressure
	Evicted       int64 // snapshots force-closed by the controller
}

// pressure is the version-budget controller: a small feedback loop that
// watches Space.Live() against the watermarks and walks the escalation
// ladder. Writers consult it through admit() — one atomic load while the
// level is below backpressure.
type pressure struct {
	db     *DB
	budget VersionBudget
	level  atomic.Int32

	softTrips     atomic.Int64
	emergencies   atomic.Int64
	backpressured atomic.Int64
	rejected      atomic.Int64
	evicted       atomic.Int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// overSoftSince marks when live last crossed the soft watermark upward;
	// zero while below. Controller-goroutine only.
	overSoftSince time.Time
}

func newPressure(db *DB, budget VersionBudget) *pressure {
	p := &pressure{
		db:     db,
		budget: budget,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *pressure) close() {
	close(p.stop)
	<-p.done
}

// run is the controller loop: evaluate on a period derived from the writer
// wait bound (so a blocked writer sees several relief attempts before its
// deadline) and immediately when a waiting writer kicks.
func (p *pressure) run() {
	defer close(p.done)
	period := p.budget.MaxWriterWait / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.evaluate()
		case <-p.kick:
			p.evaluate()
		case <-p.stop:
			return
		}
	}
}

// evaluate walks the ladder once: measure, relieve, re-measure, set level.
func (p *pressure) evaluate() {
	live := p.db.space.Live()
	if live < p.budget.Soft {
		p.level.Store(int32(PressureNormal))
		p.overSoftSince = time.Time{}
		return
	}
	if p.overSoftSince.IsZero() {
		p.overSoftSince = time.Now()
		p.softTrips.Add(1)
	}
	// Raise to soft, but never lower a higher rung here: writers held back
	// by backpressure stay held while this pass tries to relieve it, and are
	// let go only by the re-measurement below.
	if PressureLevel(p.level.Load()) < PressureSoft {
		p.level.Store(int32(PressureSoft))
	}

	// Rung 1: emergency out-of-period collection — one full pass in §4.4's
	// order: GT, then the table collector, which gets past a table-scoped
	// pin for every other table, then the interval collector, which reclaims
	// in-between versions even while an old snapshot pins the horizon.
	p.emergencies.Add(1)
	p.db.hybrid.Collect()
	live = p.db.space.Live()
	if live < p.budget.Soft {
		p.level.Store(int32(PressureNormal))
		p.overSoftSince = time.Time{}
		return
	}

	// Rung 3: eviction. Collection alone cannot help — something is pinning
	// the versions. Triggered by the hard watermark, or by sustained
	// over-soft pressure: backpressure freezes the live count wherever
	// rejection set in, so waiting for Hard alone could mean rejecting
	// writes forever below it. Evict the oldest non-statement snapshots
	// (cursors, forgotten Trans-SI transactions) until collection frees
	// enough or no candidates remain.
	if live >= p.budget.Hard || time.Since(p.overSoftSince) >= p.budget.EvictAfter {
		for live >= p.budget.Soft {
			victim := p.oldestPinning()
			if victim == nil {
				break
			}
			victim.Kill()
			p.evicted.Add(1)
			p.db.hybrid.Collect()
			live = p.db.space.Live()
		}
	}

	switch {
	case live < p.budget.Soft:
		p.level.Store(int32(PressureNormal))
		p.overSoftSince = time.Time{}
	case live < p.budget.Hard:
		// Rung 2: sustained over-soft despite collection — writers wait.
		p.level.Store(int32(PressureBackpressure))
	default:
		p.level.Store(int32(PressureEvict))
	}
}

// oldestPinning picks the eviction victim: the oldest active cursor or
// Trans-SI snapshot. Statement snapshots are exempt — they end with their
// statement and are never the long-lived blocker (§1).
func (p *pressure) oldestPinning() *txn.Snapshot {
	var victim *txn.Snapshot
	p.db.m.View().Snapshots(func(s *txn.Snapshot) {
		if s.Kind() == txn.KindStatement || s.Released() || s.Killed() {
			return
		}
		if victim == nil || s.Started().Before(victim.Started()) {
			victim = s
		}
	})
	return victim
}

// admit gates one write. The fast path (below soft, no backpressure) is two
// atomic loads. Between soft and hard the write is admitted but the
// controller is kicked, making soft-watermark detection event-driven instead
// of waiting for the next tick — a write burst cannot race past the ladder
// between evaluations. At or above hard, or under declared backpressure, the
// writer waits with exponential backoff and fails with ErrVersionPressure
// when MaxWriterWait expires first.
func (p *pressure) admit() error {
	if PressureLevel(p.level.Load()) < PressureBackpressure {
		live := p.db.space.Live()
		if live < p.budget.Soft {
			return nil
		}
		select {
		case p.kick <- struct{}{}:
		default:
		}
		if live < p.budget.Hard {
			return nil
		}
	}
	p.backpressured.Add(1)
	deadline := time.Now().Add(p.budget.MaxWriterWait)
	backoff := 250 * time.Microsecond
	for {
		select {
		case p.kick <- struct{}{}:
		default:
		}
		time.Sleep(backoff)
		if PressureLevel(p.level.Load()) < PressureBackpressure && p.db.space.Live() < p.budget.Hard {
			return nil
		}
		if !time.Now().Before(deadline) {
			p.rejected.Add(1)
			return ErrVersionPressure
		}
		if backoff *= 2; backoff > 4*time.Millisecond {
			backoff = 4 * time.Millisecond
		}
	}
}

// stats snapshots the controller state.
func (p *pressure) stats() PressureStats {
	live := p.db.space.Live()
	return PressureStats{
		Enabled:       true,
		Level:         PressureLevel(p.level.Load()),
		Soft:          p.budget.Soft,
		Hard:          p.budget.Hard,
		Live:          live,
		Utilization:   ratio(live, p.budget.Hard),
		SoftTrips:     p.softTrips.Load(),
		Emergencies:   p.emergencies.Load(),
		Backpressured: p.backpressured.Load(),
		Rejected:      p.rejected.Load(),
		Evicted:       p.evicted.Load(),
	}
}

// admitWrite is the engine's write gate: fail-stop first (a wounded node
// accepts no writes at all), then the version-budget controller.
func (db *DB) admitWrite() error {
	if err := db.fail.check(); err != nil {
		return err
	}
	if db.pressure != nil {
		return db.pressure.admit()
	}
	return nil
}

// PressureStats returns the version-budget controller's state; the zero
// value (Enabled=false) when no VersionBudget is configured.
func (db *DB) PressureStats() PressureStats {
	if db.pressure == nil {
		return PressureStats{}
	}
	return db.pressure.stats()
}
