package gc_test

import (
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// The two collectors below are the table and interval collectors as they were
// before they became incremental: stateless, walking the whole window on
// every call. They are kept as the model the incremental ones are checked
// against (incremental_test.go) — whatever a full-window pass would reclaim
// right after an incremental pass is something the incremental pass missed.

// modelTableGC is the full-window table collector of §4.3: every group below
// the unscoped minimum, oldest first, every live version against its table's
// or partition's horizon.
func modelTableGC(m *txn.Manager, threshold time.Duration, resolve gc.PartitionResolver) (reclaimed int) {
	view := m.View()
	view.ScopeLongLived(threshold)
	bound := view.UnscopedHorizon()
	tables := make(map[ts.TableID]ts.CID)
	parts := make(map[ts.PartKey]ts.CID)
	horizonFor := func(key ts.RecordKey) ts.CID {
		if resolve != nil {
			if p, ok := resolve(key); ok {
				pk := ts.PartKey{Table: key.Table, Partition: p}
				h, cached := parts[pk]
				if !cached {
					h = view.PartitionHorizon(key.Table, p)
					parts[pk] = h
				}
				return h
			}
		}
		h, cached := tables[key.Table]
		if !cached {
			h = view.TableHorizon(key.Table)
			tables[key.Table] = h
		}
		return h
	}
	space := m.Space()
	space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid >= bound {
			return false
		}
		g.Each(func(v *mvcc.Version) {
			if v.Reclaimed() {
				return
			}
			if min := horizonFor(v.Key); cid < min {
				reclaimed += space.ReclaimBelow(v.Chain(), min).Versions
			}
		})
		return true
	})
	return reclaimed
}

// modelInterval is the full-window interval collector of §4.2: every chain
// reachable from a group in (min(S), bound], Algorithm 1 over each.
func modelInterval(m *txn.Manager) (reclaimed int) {
	view := m.View()
	snaps, bound := view.Set(), view.Bound()
	if len(snaps) == 0 {
		return 0
	}
	minS := snaps[0]
	space := m.Space()
	var chains []*mvcc.Chain
	seen := make(map[*mvcc.Chain]struct{})
	space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid > bound {
			return true
		}
		if cid <= minS {
			return false
		}
		g.Each(func(v *mvcc.Version) {
			if v.Reclaimed() {
				return
			}
			if _, dup := seen[v.Chain()]; !dup {
				seen[v.Chain()] = struct{}{}
				chains = append(chains, v.Chain())
			}
		})
		return true
	})
	for _, ch := range chains {
		reclaimed += space.ReclaimIntervals(ch, snaps, bound, nil).Versions
	}
	return reclaimed
}
