package gc

import (
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// DefaultLongLivedThreshold is the age past which a snapshot counts as
// long-lived for the table collector when no threshold is configured: two
// group-collector periods of DefaultPeriods.
const DefaultLongLivedThreshold = 100 * time.Millisecond

// PartitionResolver maps a record to its partition, when its table is
// partitioned. The engine wires its catalog in; a nil resolver (or a false
// return) keeps the collector at table granularity.
type PartitionResolver func(ts.RecordKey) (ts.PartitionID, bool)

// TableGC is the table garbage collector of §4.3, the semantic optimization:
//
//  1. it discovers long-lived snapshots whose complete table scope is known
//     a priori (always under Stmt-SI; under Trans-SI for declared-table
//     transactions and precompiled procedures) in the pass's view;
//  2. it narrows their announcements to their scope tables (the paper moves
//     the timestamp from the global STS tracker to per-table trackers; here
//     the timestamp stays in its slot and gains a scope);
//  3. it reclaims versions with per-table horizons, so a long-lived OLAP
//     snapshot over one table no longer blocks reclamation of every other
//     table.
//
// The group list scan is bounded above by the minimum over the *unscoped*
// snapshots (region B of Figure 9); each version's reclamation horizon is
// its own table's effective minimum.
//
// A pass is incremental. It remembers where the last one stopped and the
// horizon it used for every table and partition it met, and keeps this
// invariant: every live version in a group below next sits at or above its
// table's (partition's) remembered horizon — it is a leftover that horizon
// protects. So a pass visits the groups committed since the last one, and
// goes back further only when a remembered horizon has advanced, and then
// only to that horizon's old value: nothing older can have been waiting for
// it. Under a table-scoped long snapshot that is what keeps the pass from
// re-walking the whole pinned window every time (DESIGN.md §15.5). The two
// maps hold one entry per table and partition ever met, so the catalog bounds
// them.
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

	next   ts.CID                // groups below it have been visited
	tables map[ts.TableID]ts.CID // horizon the last pass used, per table
	parts  map[ts.PartKey]ts.CID // and per partition
}

// NewTableGC returns a TG collector with the given long-lived threshold
// (<=0 selects DefaultLongLivedThreshold).
func NewTableGC(m *txn.Manager, threshold time.Duration) *TableGC {
	if threshold <= 0 {
		threshold = DefaultLongLivedThreshold
	}
	return &TableGC{
		m:         m,
		Threshold: threshold,
		tables:    make(map[ts.TableID]ts.CID),
		parts:     make(map[ts.PartKey]ts.CID),
	}
}

// Name implements Collector.
func (c *TableGC) Name() string { return "TG" }

// Collect implements Collector, over a view of its own.
func (c *TableGC) Collect() RunStats { return c.collect(c.m.View()) }

// collect is one run over the pass's view.
func (c *TableGC) collect(view *txn.View) RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}

	// Steps 1+2: classify long-lived snapshots and narrow them to their
	// tables or partitions — in the view too, so step 3 already sees them
	// scoped.
	st.SnapshotsScoped = view.ScopeLongLived(c.Threshold)

	// Step 3: reclaim with per-table minimums. Scan groups up to the global
	// tracker's minimum — versions beyond it are pinned globally anyway.
	bound := view.UnscopedHorizon()
	st.Horizon = bound
	// Refresh the remembered horizons; one that advanced reopens the groups
	// from its old value on. A horizon can also step back (a snapshot taken
	// at the head of an idle system sits one below "nothing active"): what
	// was left behind then is still at or above it.
	from := c.next
	moved := func(old, h ts.CID) ts.CID {
		if h > old && old < from {
			from = old
		}
		return h
	}
	for tid, old := range c.tables {
		c.tables[tid] = moved(old, view.TableHorizon(tid))
	}
	for pk, old := range c.parts {
		c.parts[pk] = moved(old, view.PartitionHorizon(pk.Table, pk.Partition))
	}
	// A table or partition met for the first time has nothing in the groups
	// already visited, so reading its horizon now is reading it in time —
	// unless the table was partitioned after its versions were first met:
	// then what was left behind under the table's horizon may sit below the
	// partition's, and the next pass starts from there.
	next := bound
	horizonFor := func(key ts.RecordKey) ts.CID {
		if c.Resolver != nil {
			if p, ok := c.Resolver(key); ok {
				pk := ts.PartKey{Table: key.Table, Partition: p}
				h, known := c.parts[pk]
				if !known {
					h = view.PartitionHorizon(key.Table, p)
					c.parts[pk] = h
					if th, met := c.tables[key.Table]; met && th < h && th < next {
						next = th
					}
				}
				return h
			}
		}
		h, known := c.tables[key.Table]
		if !known {
			h = view.TableHorizon(key.Table)
			c.tables[key.Table] = h
		}
		return h
	}
	space := c.m.Space()
	space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid >= bound {
			return true // pinned globally; a later pass's
		}
		if cid < from {
			return false
		}
		g.Each(func(v *mvcc.Version) {
			if v.Reclaimed() {
				return
			}
			if min := horizonFor(v.Key); cid < min {
				st.ChainsScanned++
				st.absorb(space.ReclaimBelow(v.Chain(), min))
			}
		})
		return true
	})
	c.next = next
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}
