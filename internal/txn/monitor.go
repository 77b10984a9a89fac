package txn

import (
	"time"

	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// Monitor is the system monitor of §4.3 step 1: it reports every active
// snapshot's status so the table garbage collector can discover long-lived
// snapshots and their table scopes. It keeps no state of its own — each
// method is a scan of the snapshot registry's announcements.
type Monitor struct {
	reg *sts.Registry
}

// each calls f for every active snapshot with the timestamp it announces.
// Announcements that no Snapshot owns (a replica's horizon pin) are not
// snapshots of this engine and are skipped.
func (mo *Monitor) each(f func(c ts.CID, s *Snapshot)) {
	mo.reg.Scan(func(c ts.CID, h *sts.Handle) {
		if h == nil {
			return
		}
		if s, ok := h.Owner.(*Snapshot); ok {
			f(c, s)
		}
	})
}

// Active returns the currently active snapshots (unordered).
func (mo *Monitor) Active() []*Snapshot {
	var out []*Snapshot
	mo.each(func(_ ts.CID, s *Snapshot) { out = append(out, s) })
	return out
}

// Summary returns the number of active snapshots and, when there are any,
// the minimum timestamp among them, in one scan and without allocating. The
// "Active Commit ID Range" of Figure 2 is CurrentTS minus that minimum.
func (mo *Monitor) Summary() (active int, oldest ts.CID) {
	mo.each(func(c ts.CID, _ *Snapshot) {
		if active == 0 || c < oldest {
			oldest = c
		}
		active++
	})
	return active, oldest
}

// ActiveCount returns the number of active snapshots.
func (mo *Monitor) ActiveCount() int {
	n, _ := mo.Summary()
	return n
}

// OldestTS returns the minimum timestamp over active snapshots, or ok=false
// when none are active.
func (mo *Monitor) OldestTS() (ts.CID, bool) {
	n, oldest := mo.Summary()
	return oldest, n > 0
}

// LongLived returns snapshots older than threshold whose complete table
// scope is known and that the table collector has not narrowed yet — the
// candidates of its first step.
func (mo *Monitor) LongLived(threshold time.Duration) []*Snapshot {
	var out []*Snapshot
	mo.each(func(_ ts.CID, s *Snapshot) {
		if s.Age() >= threshold && s.ScopeKnown() && !s.Scoped() && !s.Released() {
			out = append(out, s)
		}
	})
	return out
}
