package txn

import (
	"sync/atomic"

	"hybridgc/internal/ts"
)

// gcBell is how the transaction layer tells a work-driven collector loop
// (gc.Hybrid) that a pass would find something to do. It has two sources,
// both of which cost the hot paths one atomic operation and neither of which
// ever blocks: the commit leader counts the versions it publishes and rings
// when a batch of them has accumulated since the last pass began, and a
// releasing snapshot rings when its timestamp is the one the last pass's
// horizon scan found holding work back. Rings coalesce in a one-slot channel.
// Until a loop listens the bell is off: nothing is counted and nothing rings.
type gcBell struct {
	ring chan struct{} // cap 1: a pending ring stands for any number of them
	// batch is how many freshly published versions make a pass worth
	// running; zero while no loop listens.
	batch atomic.Int64
	// fresh counts versions published since the listening loop last began a
	// pass.
	fresh atomic.Int64
	// awaited is the snapshot timestamp, plus one, whose release should
	// ring; zero when the last horizon scan was held back by none.
	awaited atomic.Uint64
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
	if f := b.fresh.Add(n); f >= batch && f-n < batch {
		b.poke()
	}
}

// released is a snapshot's report that it no longer announces c.
func (b *gcBell) released(c ts.CID) {
	if a := uint64(c) + 1; b.awaited.Load() == a && b.awaited.CompareAndSwap(a, 0) {
		b.poke()
	}
}

// ListenGC turns the bell on for a collector loop that wants to be woken
// every batch published versions, and returns the channel the rings arrive
// on. ListenGC(0) turns it off again.
func (m *Manager) ListenGC(batch int64) <-chan struct{} {
	m.bell.batch.Store(batch)
	if batch == 0 {
		m.bell.awaited.Store(0)
	}
	return m.bell.ring
}

// BeginGCPass is called by the listening loop at the start of each pass: the
// versions counted so far are the pass's to find, and the next batch is
// counted from here.
func (m *Manager) BeginGCPass() { m.bell.fresh.Store(0) }

// AwaitRelease is the group collector's report of how its horizon scan
// ended: held back (blocked) by the snapshot minimum min with groups left
// behind it in the list, or not. When it was, and what is left behind
// amounts to at least a batch of versions, the release of a snapshot at min
// rings the bell — the pass it causes finds that work at once instead of a
// period later. Below a batch the release is not worth a pass of its own:
// under a stream of short transactions every horizon is some snapshot's
// timestamp, and ringing for each would turn the loop into a busy poll.
func (m *Manager) AwaitRelease(min ts.CID, blocked bool) {
	batch := m.bell.batch.Load()
	if blocked && batch > 0 && m.space.Live() >= batch {
		m.bell.awaited.Store(uint64(min) + 1)
	} else {
		m.bell.awaited.Store(0)
	}
}
