package gc

import (
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Interval (SI) is the interval garbage collector of §4.2. It retrieves the
// full ordered set S of active snapshot timestamps, finds the
// GroupCommitContext objects whose CIDs lie strictly between min(S) and
// max(S), walks the version chains reachable from them highest-CID-first,
// and reclaims every version whose visible interval contains no element of
// S using the merge-based Algorithm 1. This collects versions in the middle
// of chains that a long-lived snapshot would otherwise pin forever.
type Interval struct {
	m      *txn.Manager
	Totals Totals
}

// NewInterval returns an SI collector over m.
func NewInterval(m *txn.Manager) *Interval {
	return &Interval{m: m}
}

// Name implements Collector.
func (c *Interval) Name() string { return "SI" }

// Collect implements Collector.
func (c *Interval) Collect() RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}
	// Step 1: retrieve the full active snapshot timestamp set, atomically
	// with the commit timestamp that bounds how far interval reclamation may
	// reach (§4.2 bounds by max(S); the commit-timestamp bound collects
	// strictly more and stays safe because snapshots registered after this
	// point cannot sit below it).
	snaps, bound := c.m.SnapshotSetAndBound()
	if len(snaps) < 1 {
		// No active snapshot: the timestamp collectors reclaim everything;
		// there is no interval work.
		st.Duration = time.Since(start)
		c.Totals.record(st)
		return st
	}
	minS := snaps[0]
	st.Horizon = bound
	space := c.m.Space()

	// Step 2+3: gather the chains reachable from groups with
	// min(S) < CID <= bound, highest-CID-first, deduplicated.
	var chains []*mvcc.Chain
	seen := make(map[*mvcc.Chain]struct{})
	space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid > bound {
			return true // newer than the window; keep descending
		}
		if cid <= minS {
			return false // below the window; the ordered list is done
		}
		for _, v := range g.Versions() {
			if v.Reclaimed() {
				continue
			}
			ch := v.Chain()
			if _, dup := seen[ch]; !dup {
				seen[ch] = struct{}{}
				chains = append(chains, ch)
			}
		}
		return true
	})

	// Step 4: per chain, reclaim the versions whose visible interval
	// intersects no snapshot (Algorithm 1 runs inside ReclaimIntervals).
	for _, ch := range chains {
		st.ChainsScanned++
		st.Versions += int64(space.ReclaimIntervals(ch, snaps, bound))
	}
	st.Groups = pruneDrainedGroups(space)
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// GroupInterval (GI) is the group interval collector of §3.2, which the
// paper describes via immediate-successor subgroups and leaves unimplemented
// in HANA ("an interesting future topic of research"). This implementation
// realizes it as follows: within the (min(S), max(S)) window, the versions
// of each group G are partitioned by the CID of their immediate committed
// successor; each subgroup shares one visible interval [cid(G), succCID), so
// one LGN probe against S decides the whole subgroup. Decisions are memoized
// per (CID, successor-CID) pair, which is the batching that distinguishes GI
// from SI.
type GroupInterval struct {
	m      *txn.Manager
	Totals Totals
}

// NewGroupInterval returns a GI collector over m.
func NewGroupInterval(m *txn.Manager) *GroupInterval {
	return &GroupInterval{m: m}
}

// Name implements Collector.
func (c *GroupInterval) Name() string { return "GI" }

// Collect implements Collector.
func (c *GroupInterval) Collect() RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}
	snaps, bound := c.m.SnapshotSetAndBound()
	if len(snaps) < 1 {
		st.Duration = time.Since(start)
		c.Totals.record(st)
		return st
	}
	minS := snaps[0]
	st.Horizon = bound
	space := c.m.Space()

	type ivKey struct{ self, succ ts.CID }
	memo := make(map[ivKey]bool)
	decide := func(self, succ ts.CID) bool {
		if succ > bound {
			return false
		}
		k := ivKey{self, succ}
		if g, ok := memo[k]; ok {
			return g
		}
		// The subgroup's interval [self, succ) is garbage iff no snapshot
		// lies inside it: succ <= LGN(self, S).
		g := succ <= ts.LGN(self, snaps)
		memo[k] = g
		return g
	}

	space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid > bound {
			return true
		}
		if cid <= minS {
			return false
		}
		st.ChainsScanned++
		for _, v := range g.Versions() {
			if v.Reclaimed() {
				continue
			}
			if space.ReclaimVersionIf(v, decide) {
				st.Versions++
			}
		}
		return true
	})
	st.Groups = pruneDrainedGroups(space)
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}
