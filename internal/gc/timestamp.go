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

// Collect implements Collector by scanning the whole RID hash table.
func (c *SingleTimestamp) Collect() RunStats {
	start := time.Now()
	min := c.m.GlobalHorizon()
	st := RunStats{Collector: c.Name(), Horizon: min}
	space := c.m.Space()
	space.HT.ForEach(func(ch *mvcc.Chain) bool {
		st.ChainsScanned++
		res := space.ReclaimBelow(ch, min)
		st.Versions += int64(res.Versions)
		if res.Migrated {
			st.Migrated++
		}
		if res.Dropped {
			st.Dropped++
		}
		if res.Emptied {
			st.ChainsEmptied++
		}
		return true
	})
	// ST identifies garbage per chain, but fully drained groups can still be
	// unlinked from the group list to bound its growth.
	st.Groups = pruneDrainedGroups(space)
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// GroupTimestamp (GT) is the global group garbage collector of §4.1: it
// walks the ordered GroupCommitContext list from the oldest CID and, for
// every group entirely below the minimum snapshot timestamp, reclaims the
// group's versions as a whole and unlinks the group. It stops at the first
// group at or above the minimum, so identification cost is proportional to
// the garbage found, not to the version space.
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

// Collect implements Collector.
func (c *GroupTimestamp) Collect() RunStats {
	start := time.Now()
	min := c.m.GlobalHorizon()
	st := RunStats{Collector: c.Name(), Horizon: min}
	space := c.m.Space()
	space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		if g.CID() >= min {
			return false // list is CID-ordered: iteration finishes here
		}
		for _, v := range g.Versions() {
			if v.Reclaimed() {
				continue
			}
			st.ChainsScanned++
			res := space.ReclaimBelow(v.Chain(), min)
			st.Versions += int64(res.Versions)
			if res.Migrated {
				st.Migrated++
			}
			if res.Dropped {
				st.Dropped++
			}
			if res.Emptied {
				st.ChainsEmptied++
			}
		}
		space.Groups.Remove(g)
		st.Groups++
		return true
	})
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// pruneDrainedGroups removes groups whose versions were all reclaimed by
// other collectors, stopping at the first group that still holds live
// versions (list order keeps the scan cheap).
func pruneDrainedGroups(space *mvcc.Space) int64 {
	var removed int64
	space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		for _, v := range g.Versions() {
			if !v.Reclaimed() {
				return false
			}
		}
		space.Groups.Remove(g)
		removed++
		return true
	})
	return removed
}
