package txn

import (
	"time"

	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// View is one reading of the active snapshots: an sts.View taken under the
// scan seqlock with the commit timestamp as its bound. It is the only way
// anything reads the registry. A collector pass takes one and hands it to
// GT, TG and SI; Stats, the pressure ladder, the watchdog and m_snapshots
// each take their own. Its safety condition is the one
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

// Snapshots calls f for every announcement, oldest first: each is a
// snapshot of this engine.
func (v *View) Snapshots(f func(*Snapshot)) {
	v.Each(func(_ ts.CID, h *sts.Handle) { f(h.Owner.(*Snapshot)) })
}

// ScopeLongLived is the table collector's steps 1 and 2 (§4.3): every
// snapshot older than threshold whose complete table scope is known a priori
// and that has not been narrowed yet is narrowed to its tables (or, when the
// plan's partition pruning is known, partitions), in the registry and in
// this view, so the pass that discovers a long-lived snapshot already
// reclaims past it. It returns how many it narrowed.
//
// A statement snapshot may be re-armed on another table while this runs;
// what makes that safe is that the scope is read and narrowed through the
// handle alone (sts.Handle.Narrow), never from a field of the snapshot. A
// statement's age counts from its transaction's first statement, so
// re-arming can only make one look older than it is — narrowing it earlier,
// which its exact one-table scope always allows.
func (v *View) ScopeLongLived(threshold time.Duration) (scoped int64) {
	v.Snapshots(func(s *Snapshot) {
		if s.Age() >= threshold && s.h.Narrow() {
			v.Rescope(&s.h)
			scoped++
		}
	})
	return scoped
}
