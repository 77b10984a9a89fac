package gc

import (
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// DefaultLongLivedThreshold is the age past which a snapshot counts as
// long-lived for the table collector when no threshold is configured.
const DefaultLongLivedThreshold = 500 * time.Millisecond

// TableGC is the table garbage collector of §4.3, the semantic optimization:
//
//  1. it discovers long-lived snapshots whose complete table scope is known
//     a priori (always under Stmt-SI; under Trans-SI for declared-table
//     transactions and precompiled procedures) via the system monitor;
//  2. it narrows their announcements to their scope tables (the paper moves
//     the timestamp from the global STS tracker to per-table trackers; here
//     the timestamp stays in its slot and gains a scope);
//  3. it reclaims versions with per-table horizons, so a long-lived OLAP
//     snapshot over one table no longer blocks reclamation of every other
//     table.
//
// The group list scan is bounded by the minimum over the *unscoped*
// snapshots (region B of Figure 9); each version's reclamation horizon is its own
// table's effective minimum.
// PartitionResolver maps a record to its partition, when its table is
// partitioned. The engine wires its catalog in; a nil resolver (or a false
// return) keeps the collector at table granularity.
type PartitionResolver func(ts.RecordKey) (ts.PartitionID, bool)

type TableGC struct {
	m *txn.Manager
	// Threshold is the long-lived snapshot age cutoff.
	Threshold time.Duration
	// Resolver enables the partition-level semantic optimization of §4.3:
	// snapshots with declared partition scopes are narrowed to those
	// partitions, and versions are reclaimed against their own partition's
	// horizon.
	Resolver PartitionResolver
	Totals   Totals
}

// NewTableGC returns a TG collector with the given long-lived threshold
// (<=0 selects DefaultLongLivedThreshold).
func NewTableGC(m *txn.Manager, threshold time.Duration) *TableGC {
	if threshold <= 0 {
		threshold = DefaultLongLivedThreshold
	}
	return &TableGC{m: m, Threshold: threshold}
}

// Name implements Collector.
func (c *TableGC) Name() string { return "TG" }

// Collect implements Collector.
func (c *TableGC) Collect() RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}

	// Steps 1+2: classify long-lived snapshots and narrow them to their
	// tables (or, when the plan's partition pruning is known, partitions).
	for _, s := range c.m.Monitor().LongLived(c.Threshold) {
		if tid, parts, ok := s.PartitionScope(); ok {
			if s.Handle().ScopeToPartitions(tid, parts) {
				st.SnapshotsScoped++
			}
			continue
		}
		if s.Handle().ScopeToTables(s.Scope()) {
			st.SnapshotsScoped++
		}
	}

	// Step 3: reclaim with per-table minimums. Scan groups up to the global
	// tracker's minimum — versions beyond it are pinned globally anyway.
	bound := c.globalTrackerBound()
	st.Horizon = bound
	space := c.m.Space()
	// Per-table and per-partition horizons are stable during the pass;
	// cache them.
	tblHorizons := make(map[ts.TableID]ts.CID)
	partHorizons := make(map[ts.PartKey]ts.CID)
	horizonFor := func(key ts.RecordKey) ts.CID {
		if c.Resolver != nil {
			if p, ok := c.Resolver(key); ok {
				pk := ts.PartKey{Table: key.Table, Partition: p}
				h, cached := partHorizons[pk]
				if !cached {
					h = c.m.PartitionHorizon(key.Table, p)
					partHorizons[pk] = h
				}
				return h
			}
		}
		h, cached := tblHorizons[key.Table]
		if !cached {
			h = c.m.TableHorizon(key.Table)
			tblHorizons[key.Table] = h
		}
		return h
	}
	space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid >= bound {
			return false
		}
		drained := true
		for _, v := range g.Versions() {
			if v.Reclaimed() {
				continue
			}
			min := horizonFor(v.Key)
			if cid >= min {
				drained = false
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
			if !v.Reclaimed() {
				drained = false
			}
		}
		if drained {
			space.Groups.Remove(g)
			st.Groups++
		}
		return true
	})
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// globalTrackerBound returns the minimum over unscoped (not table-scoped)
// snapshot announcements, or everything-committed when there are none.
func (c *TableGC) globalTrackerBound() ts.CID {
	return c.m.GlobalTrackerHorizon()
}
