package gc

import (
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/txn"
)

// SingleTimestamp (ST) is the conventional garbage collector every surveyed
// system in §6.1 implements: it visits every version chain through the RID
// hash table and reclaims, per chain, all committed versions below the
// global minimum snapshot timestamp — keeping the newest of them only as the
// migrated table-space image. It exists as the taxonomy baseline; HANA's
// production collector is the group variant below.
type SingleTimestamp struct {
	m      *txn.Manager
	Totals Totals
}

// NewSingleTimestamp returns an ST collector over m.
func NewSingleTimestamp(m *txn.Manager) *SingleTimestamp {
	return &SingleTimestamp{m: m}
}

// Name implements Collector.
func (c *SingleTimestamp) Name() string { return "ST" }

// Collect implements Collector by scanning the whole RID hash table. ST
// identifies garbage per chain; the commit groups it drains on the way are
// unlinked as their last version goes, like everyone else's.
func (c *SingleTimestamp) Collect() RunStats {
	start := time.Now()
	min := c.m.View().Horizon()
	st := RunStats{Collector: c.Name(), Horizon: min}
	space := c.m.Space()
	space.HT.ForEach(func(ch *mvcc.Chain) bool {
		st.ChainsScanned++
		st.absorb(space.ReclaimBelow(ch, min))
		return true
	})
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// GroupTimestamp (GT) is the global group garbage collector of §4.1: it
// walks the ordered GroupCommitContext list from the oldest CID and, for
// every group entirely below the minimum snapshot timestamp, reclaims the
// group's versions as a whole, which unlinks the group. It stops at the
// first group at or above the minimum, so identification cost is
// proportional to the garbage found, not to the version space.
//
// The horizon covers table-scoped snapshots as well as unscoped ones (§4.4),
// so GT stays correct when the table collector has narrowed snapshots.
type GroupTimestamp struct {
	m      *txn.Manager
	Totals Totals
}

// NewGroupTimestamp returns a GT collector over m.
func NewGroupTimestamp(m *txn.Manager) *GroupTimestamp {
	return &GroupTimestamp{m: m}
}

// Name implements Collector.
func (c *GroupTimestamp) Name() string { return "GT" }

// Collect implements Collector, over a view of its own.
func (c *GroupTimestamp) Collect() RunStats { return c.collect(c.m.View()) }

// collect is one run over the pass's view.
func (c *GroupTimestamp) collect(view *txn.View) RunStats {
	start := time.Now()
	min, pinned := view.Horizon(), view.Len() > 0
	st := RunStats{Collector: c.Name(), Horizon: min}
	space := c.m.Space()
	blocked := false
	space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		if g.CID() >= min {
			// The list is CID-ordered: iteration finishes here, with this
			// group and everything behind it waiting for a snapshot at min
			// to go — if a snapshot is what set min.
			blocked = pinned
			return false
		}
		g.Each(func(v *mvcc.Version) {
			if v.Reclaimed() {
				return
			}
			st.ChainsScanned++
			st.absorb(space.ReclaimBelow(v.Chain(), min))
		})
		return true
	})
	c.m.AwaitRelease(view, blocked)
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}
