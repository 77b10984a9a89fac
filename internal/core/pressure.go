package core

import (
	"errors"
	"sync/atomic"
	"time"

	"hybridgc/internal/txn"
)

// ErrVersionPressure reports a write rejected because the version space is
// over its soft watermark, a full collection pass could not relieve it, and
// the writer's bounded wait expired. Transient: callers should retry (see Retry),
// since collection or snapshot eviction usually frees space shortly after.
var ErrVersionPressure = errors.New("core: write rejected under version-space pressure")

// VersionBudget bounds the version space. The paper's Figure 2 shows the
// unbounded alternative: when GC is blocked, the version count and commit
// timestamp range grow without limit until the system becomes unavailable.
// With a budget configured the engine degrades gracefully instead, along an
// escalation ladder (see pressure).
type VersionBudget struct {
	// Soft is the live-version count at which the collector loop's passes
	// become the full one and, when such a pass cannot get back under it,
	// writers are held back. <=0 derives Hard/2.
	Soft int64
	// Hard is the live-version count the engine defends by force: crossing
	// it evicts the oldest pinning snapshots. <=0 derives 2*Soft.
	Hard int64
}

// The ladder's timing. A writer held back fails with ErrVersionPressure
// after maxWriterWait. evictAfter bounds over-soft pressure that full passes
// cannot relieve: backpressure freezes the live count wherever rejection set
// in, possibly below Hard, so without it an unreachable hard watermark would
// mean rejecting writes forever while a forgotten cursor pins the space. The
// loop walks a raised ladder at least every recheck, rung or not: a writer
// held back sees several relief attempts, and evictAfter elapses with no
// writer at all.
const (
	maxWriterWait = 100 * time.Millisecond
	evictAfter    = 2 * maxWriterWait
	recheck       = maxWriterWait / 4
)

// fill derives the watermark left unset; false when neither is set.
func (b *VersionBudget) fill() bool {
	if b.Soft <= 0 && b.Hard <= 0 {
		return false
	}
	if b.Soft <= 0 {
		b.Soft = b.Hard / 2
	}
	if b.Hard <= 0 {
		b.Hard = 2 * b.Soft
	}
	if b.Hard < b.Soft {
		b.Hard = b.Soft
	}
	return true
}

// PressureLevel is the degradation ladder's current rung.
type PressureLevel int32

const (
	// PressureNormal: live versions below the soft watermark.
	PressureNormal PressureLevel = iota
	// PressureSoft: the soft watermark was crossed; the collector loop runs
	// the full pass.
	PressureSoft
	// PressureBackpressure: a full pass could not get back under the soft
	// watermark (something pins the versions); writers wait, bounded, then
	// fail with ErrVersionPressure.
	PressureBackpressure
	// PressureEvict: the hard watermark was crossed; the ladder force-closes
	// the oldest pinning snapshots (ErrSnapshotKilled for their owners)
	// until collection can free space again.
	PressureEvict
)

// String implements fmt.Stringer.
func (l PressureLevel) String() string {
	if l < PressureNormal || l > PressureEvict {
		return "normal"
	}
	return [...]string{"normal", "soft", "backpressure", "evict"}[l]
}

// PressureStats is a point-in-time view of the version-budget ladder.
type PressureStats struct {
	Enabled     bool
	Level       PressureLevel
	Soft        int64
	Hard        int64
	Live        int64
	Utilization float64 // Live / Hard
	// Ladder transition and action counters.
	SoftTrips     int64 // full passes that left live over soft after it was below
	Emergencies   int64 // full passes the loop ran because live was over soft
	Backpressured int64 // writers that entered the bounded wait
	Rejected      int64 // writers that timed out with ErrVersionPressure
	Evicted       int64 // snapshots force-closed by the ladder
}

// pressure is the version-budget ladder. It has no goroutine of its own:
// HybridGC's collector loop walks it (gc.Ladder) after each pass, writers
// consult it through admit() — two atomic loads while the space is below
// Soft — and ring the loop when it is not.
type pressure struct {
	db     *DB
	budget VersionBudget
	level  atomic.Int32

	softTrips     atomic.Int64
	emergencies   atomic.Int64
	backpressured atomic.Int64
	rejected      atomic.Int64
	evicted       atomic.Int64

	// Loop goroutine only: overSoftSince marks the first full pass that left
	// at or over Soft, zero while below; created is Space.Created() when the
	// last full pass began.
	overSoftSince time.Time
	created       int64
}

// Over implements gc.Ladder. At or over Soft the ladder leaves normal for
// its soft rung: the pass the loop runs now is the full one.
func (p *pressure) Over() bool {
	if p.db.space.Live() < p.budget.Soft {
		return false
	}
	p.emergencies.Add(1)
	p.created = p.db.space.Created()
	p.level.CompareAndSwap(int32(PressureNormal), int32(PressureSoft))
	return true
}

// Passed implements gc.Ladder: it walks the ladder once the loop's pass is
// done, on the loop's goroutine. Rung 1, the full §4.4 pass — GT, then the
// table collector, which gets past a table-scoped pin for every other table,
// then the interval collector, which reclaims in-between versions even while
// an old snapshot pins the horizon — has just run when full is set. Only a
// full pass that leaves at or over Soft of the versions it found is a soft
// trip, and only it raises the ladder past its soft rung.
func (p *pressure) Passed(full bool) time.Duration {
	live := p.db.space.Live()
	if full {
		live = p.left(p.created)
	}
	if full && live >= p.budget.Soft {
		if p.overSoftSince.IsZero() {
			p.overSoftSince = time.Now()
			p.softTrips.Add(1)
		}
		// Rung 3: something pins the versions. At Hard, or evictAfter after
		// the trip, evict the oldest cursors and Trans-SI transactions
		// until collection frees enough or no candidates remain.
		if live >= p.budget.Hard || time.Since(p.overSoftSince) >= evictAfter {
			for victim := p.oldestPinning(); victim != nil; victim = p.oldestPinning() {
				victim.Kill()
				p.evicted.Add(1)
				created := p.db.space.Created()
				p.db.hybrid.Collect()
				if live = p.left(created); live < p.budget.Soft {
					break
				}
			}
		}
	}
	switch {
	case live < p.budget.Soft:
		p.level.Store(int32(PressureNormal))
		p.overSoftSince = time.Time{}
		return 0
	case !full:
		// Over since the pass was chosen: the next wake runs the full one.
	case live < p.budget.Hard:
		// Rung 2: over soft after a full pass — writers wait.
		p.level.Store(int32(PressureBackpressure))
	default:
		p.level.Store(int32(PressureEvict))
	}
	return recheck
}

// left is how many of the versions that existed when Space.Created() read
// created are live now. Versions writers create beside a pass are not that
// pass's to find.
func (p *pressure) left(created int64) int64 {
	return p.db.space.Live() - (p.db.space.Created() - created)
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
// collector loop is rung, so a full pass follows the crossing at once
// instead of waiting for the next batch — a write burst cannot race past
// the ladder between passes. At or above hard, or under declared
// backpressure, the writer waits with exponential backoff, ringing the loop
// each round, and fails with ErrVersionPressure when maxWriterWait expires
// first.
func (p *pressure) admit() error {
	if PressureLevel(p.level.Load()) < PressureBackpressure {
		live := p.db.space.Live()
		if live < p.budget.Soft {
			return nil
		}
		p.db.m.RingGC()
		if live < p.budget.Hard {
			return nil
		}
	}
	p.backpressured.Add(1)
	deadline := time.Now().Add(maxWriterWait)
	backoff := 250 * time.Microsecond
	for {
		p.db.m.RingGC()
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

// stats snapshots the ladder's state.
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
// accepts no writes at all), then the version-budget ladder.
func (db *DB) admitWrite() error {
	if err := db.fail.check(); err != nil {
		return err
	}
	if db.pressure != nil {
		return db.pressure.admit()
	}
	return nil
}

// PressureStats returns the version-budget ladder's state; the zero
// value (Enabled=false) when no VersionBudget is configured.
func (db *DB) PressureStats() PressureStats {
	if db.pressure == nil {
		return PressureStats{}
	}
	return db.pressure.stats()
}
