package txn

import (
	"time"

	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// View is one reading of the active snapshots: an sts.View taken under the
// scan seqlock with the commit timestamp as its bound. It is the only way
// anything reads the registry. A collector pass takes one and hands it to
// GT, TG and SI; Stats, the pressure ladder, the watchdog, m_snapshots and
// the replica report each take their own. Its safety condition is the one
// interval reclamation needs (DESIGN.md §15.2): every snapshot held across
// or registered after the view either is among its announcements or has a
// timestamp at or above Bound() — so a view that has gone stale can only
// make its reader collect less, never something a snapshot still reads.
type View struct{ sts.View }

// View returns a fresh view.
func (m *Manager) View() *View {
	v := new(View)
	m.ViewInto(v)
	return v
}

// ViewInto refills v, reusing its buffers: the collector loop's form. The
// bound is read first, inside the window — an acquirer that read an older
// commit timestamp published before the window opened and is scanned.
func (m *Manager) ViewInto(v *View) {
	m.beginScan()
	v.Read(m.reg, m.CurrentTS())
	m.endScan()
}

// Scans returns how many views have been taken so far.
func (m *Manager) Scans() uint64 { return m.scanSeq.Load() / 2 }

// Snapshots calls f for every announcement that is a snapshot of this
// engine, oldest first. Announcements no Snapshot owns (a replica's horizon
// pin, an acquire in flight) count in Len and in every horizon but are not
// visited.
func (v *View) Snapshots(f func(*Snapshot)) {
	v.Each(func(_ ts.CID, h *sts.Handle) {
		if h == nil {
			return
		}
		if s, ok := h.Owner.(*Snapshot); ok {
			f(s)
		}
	})
}

// ScopeLongLived is the table collector's steps 1 and 2 (§4.3): every
// snapshot older than threshold whose complete table scope is known a priori
// and that has not been narrowed yet is narrowed to its tables (or, when the
// plan's partition pruning is known, partitions), in the registry and in
// this view, so the pass that discovers a long-lived snapshot already
// reclaims past it. It returns how many it narrowed.
func (v *View) ScopeLongLived(threshold time.Duration) (scoped int64) {
	v.Snapshots(func(s *Snapshot) {
		if s.Age() < threshold || !s.ScopeKnown() || s.Scoped() || s.Released() {
			return
		}
		var ok bool
		if len(s.parts) > 0 { // partitions of the one scope table
			ok = s.h.ScopeToPartitions(s.scope[0], s.parts)
		} else {
			ok = s.h.ScopeToTables(s.scope)
		}
		if ok {
			v.Rescope(&s.h)
			scoped++
		}
	})
	return scoped
}

// Pin announces timestamp c on behalf of something that is not a snapshot of
// this engine — a replica's oldest open snapshot — so every horizon respects
// it until Unpin.
func (m *Manager) Pin(c ts.CID) *sts.Handle { return m.reg.Acquire(c) }

// Unpin retracts a Pin and, like a snapshot's release, rings the collector
// loop when the pin was what the group collector found holding a batch back.
func (m *Manager) Unpin(h *sts.Handle) {
	c := h.TS()
	h.Release()
	m.bell.released(c)
}
