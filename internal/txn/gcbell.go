package txn

import (
	"sync/atomic"

	"hybridgc/internal/ts"
)

// gtEvery is how many versions published since the last group collection
// make a committer run the next one (CollectOnCommit): one view of the
// announcement array and one walk of the group list then serve this many
// versions, about thirteen TPC-C transactions. In the recorded sweep
// (CHANGES.md, oltp_mem on a 2-vCPU box, 1 to 512) every value cuts version
// residence to between a twentieth and a quarter of the loop's alone.
// Throughput is where they part: 1 to 64 read median within-pair ratios of
// 0.87 to 0.93 against the loop alone; 256 read 1.04 over four 10 s pairs,
// 0.93 over six 25 s pairs and 1.00 over ten — inside the pairs' spread,
// where 64 fell below it in every round. At 512, the loop's own batch, the
// committer and the loop are due on the same commit.
const gtEvery = 256

// gcBell is how the transaction layer tells a work-driven collector (gc.Hybrid)
// that collecting would find something to do. It has three sources, each of
// which costs the hot paths an atomic operation or two and none of which
// ever blocks: the commit leader counts the versions it publishes and rings
// the collector loop when a batch of them has accumulated since the last
// pass began; a releasing snapshot rings when its timestamp is the one the
// last horizon scan found holding work back; and a committer, once its
// commit is answered, runs the group collector itself when gtEvery versions
// have been published since the last one ran and the snapshot that stopped
// that one is gone. A version budget's writers ring as well (RingGC). Rings
// coalesce in a one-slot channel. Until a loop listens the bell is off:
// nothing is counted, nothing rings and no committer collects.
type gcBell struct {
	ring chan struct{} // cap 1: a pending ring stands for any number of them
	// batch is how many freshly published versions make a pass worth
	// running; zero while no loop listens.
	batch atomic.Int64
	// fresh counts versions published since the listening loop last began a
	// pass.
	fresh atomic.Int64
	// sinceGT counts versions published since a group collection last began,
	// on the loop or on a committer.
	sinceGT atomic.Int64
	// stalled is the timestamp, plus one, of the snapshot the last horizon
	// scan stopped at; zero once that snapshot is released, or when the scan
	// was held back by none. While it is set a committer's collection would
	// stop at the same place, so none runs.
	stalled atomic.Uint64
	// step is the committer's group collection (CollectOnCommit); nil while
	// none is installed.
	step atomic.Pointer[func()]
}

func (b *gcBell) poke() {
	select {
	case b.ring <- struct{}{}:
	default:
	}
}

// published is the commit leader's report of n new versions. It rings once
// per batch, as the count crosses the threshold, not on every commit past it.
func (b *gcBell) published(n int64) {
	batch := b.batch.Load()
	if batch == 0 {
		return
	}
	b.sinceGT.Add(n)
	if f := b.fresh.Add(n); f >= batch && f-n < batch {
		b.poke()
	}
}

// released is a snapshot's report that it no longer announces c. When c is
// where the last horizon scan stopped, the committers may collect again, and
// when at least a batch of versions is live the loop is rung too — the pass
// it causes finds what that snapshot held back at once instead of a period
// later. Below a batch the release is not worth a pass of its
// own: under a stream of short transactions every horizon is some snapshot's
// timestamp, and ringing for each would turn the loop into a busy poll.
func (m *Manager) released(c ts.CID) {
	b := &m.bell
	if a := uint64(c) + 1; b.stalled.Load() == a && b.stalled.CompareAndSwap(a, 0) {
		if batch := b.batch.Load(); batch > 0 && m.space.Live() >= batch {
			b.poke()
		}
	}
}

// collectAfterCommit is a committer's last step, taken after its commit was
// answered and its snapshot released, outside commit leadership: it runs the
// installed group collection when gtEvery versions have been published since
// the last one and the snapshot that stopped that one has gone. Under a held
// snapshot it costs two atomic loads and takes no view.
func (m *Manager) collectAfterCommit() {
	b := &m.bell
	if b.sinceGT.Load() < gtEvery || b.stalled.Load() != 0 {
		return
	}
	if step := b.step.Load(); step != nil {
		(*step)()
	}
}

// ListenGC turns the bell on for a collector loop that wants to be woken
// every batch published versions, and returns the channel the rings arrive
// on. ListenGC(0) turns it off again.
func (m *Manager) ListenGC(batch int64) <-chan struct{} {
	m.bell.batch.Store(batch)
	if batch == 0 {
		m.bell.stalled.Store(0)
	}
	return m.bell.ring
}

// RingGC is a writer's report that the version space is over its budget's
// soft watermark: it wakes the loop whatever the counts say, never blocking.
func (m *Manager) RingGC() { m.bell.poke() }

// CollectOnCommit installs gt as the group collection committers run after
// their commit (collectAfterCommit), or with nil removes it. It is counted
// only while a loop listens (ListenGC). gt must not block: a committer is
// waiting in it. A committer that loaded gt before its removal may still be
// calling it after CollectOnCommit(nil) returns; gt fences itself.
func (m *Manager) CollectOnCommit(gt func()) {
	if gt == nil {
		m.bell.step.Store(nil)
		return
	}
	m.bell.step.Store(&gt)
}

// BeginGCPass is called by the listening loop at the start of each pass: the
// versions counted so far are the pass's to find, and the next batch is
// counted from here.
func (m *Manager) BeginGCPass() { m.bell.fresh.Store(0) }

// BeginGT is called before every group collection takes its view: the
// versions published so far are that collection's to find, and the next
// gtEvery are counted from here.
func (m *Manager) BeginGT() { m.bell.sinceGT.Store(0) }

// AwaitRelease is the group collector's report of how its horizon scan over
// v ended: held back (blocked) by the snapshot minimum v.Horizon() with
// groups left behind it in the list, or not. When it was, no committer
// collects until a snapshot at that minimum is released (released).
func (m *Manager) AwaitRelease(v *View, blocked bool) {
	b := &m.bell
	if !blocked || b.batch.Load() == 0 {
		b.stalled.Store(0)
		return
	}
	min := v.Horizon()
	b.stalled.Store(uint64(min) + 1)
	// The snapshot may have been released since the view was read, finding
	// nothing armed to clear: do what its release would have done.
	if h := v.Oldest(); !h.Held() || h.TS() != min {
		m.released(min)
	}
}
