package gc

import (
	"slices"
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
//
// A pass is incremental: a version is examined when something about it
// changes, not because a period elapsed. Two things can turn a version into
// interval garbage. A successor is committed, which closes its interval —
// the pass reaches its chain from the successor's group, so it only visits
// the groups committed since the last pass (above hw). Or the snapshots
// inside its closed interval go away — Algorithm 1 names the smallest of
// them, LGN(cid, S), whenever it keeps a version, and the pass files the
// version under that timestamp; when a filed-under timestamp is no longer in
// S, exactly those versions' chains are examined again, and the survivors
// are filed under whoever holds them now. Nothing else can change the
// verdict on a closed interval at or below the bound: no later snapshot can
// land inside it. DESIGN.md §15.5 has the invariant and its proof sketch.
type Interval struct {
	m      *txn.Manager
	Totals Totals

	// hw is the bound of the last pass: every chain with a version in a
	// group at or below it has been examined up to it.
	hw ts.CID
	// held files the versions a pass kept inside a closed interval under the
	// snapshot timestamp that keeps them. A version is in one list at a time
	// and a list dies with its timestamp, so the structure is bounded by the
	// live versions (times two: see hold) and is empty when no snapshot is.
	held map[ts.CID]*heldVersions
}

// heldVersions is one snapshot timestamp's list. swept is its length after
// the last sweep of entries that other collectors have reclaimed since.
type heldVersions struct {
	vs    []*mvcc.Version
	swept int
}

// NewInterval returns an SI collector over m.
func NewInterval(m *txn.Manager) *Interval {
	return &Interval{m: m, held: make(map[ts.CID]*heldVersions)}
}

// Name implements Collector.
func (c *Interval) Name() string { return "SI" }

// Held returns how many versions are currently filed as kept by a snapshot.
func (c *Interval) Held() int {
	n := 0
	for _, l := range c.held {
		n += len(l.vs)
	}
	return n
}

// hold files v under the snapshot timestamp that keeps it (the callback of
// mvcc.Space.ReclaimIntervals, which reports a version once per holder). A
// filed version can still be reclaimed by the table collector when its
// holder is scoped to other tables; such entries are swept out whenever the
// list has doubled, which keeps it within twice the versions it really holds
// plus a constant.
func (c *Interval) hold(v *mvcc.Version, by ts.CID) {
	l := c.held[by]
	if l == nil {
		l = &heldVersions{}
		c.held[by] = l
	}
	if len(l.vs) >= 2*l.swept+64 {
		kept := l.vs[:0]
		for _, o := range l.vs {
			if stillHeld(o, by) {
				kept = append(kept, o)
			}
		}
		clear(l.vs[len(kept):])
		l.vs, l.swept = kept, len(kept)
	}
	l.vs = append(l.vs, v)
}

// stillHeld reports whether v is live and filed under by.
func stillHeld(v *mvcc.Version, by ts.CID) bool {
	h, ok := v.HeldBy()
	return ok && h == by && !v.Reclaimed()
}

// Collect implements Collector, over a view of its own.
func (c *Interval) Collect() RunStats { return c.collect(c.m.View()) }

// collect is one run over the pass's view.
func (c *Interval) collect(view *txn.View) RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}
	// Step 1: the full active snapshot timestamp set, read atomically with
	// the commit timestamp that bounds how far interval reclamation may
	// reach (§4.2 bounds by max(S); the commit-timestamp bound collects
	// strictly more and stays safe because snapshots registered after the
	// view was taken cannot sit below it).
	snaps, bound := view.Set(), view.Bound()
	st.Horizon = bound
	space := c.m.Space()
	// Step 4, per chain: reclaim the versions whose visible interval
	// intersects no snapshot (Algorithm 1 runs inside ReclaimIntervals) and
	// file the ones a snapshot keeps.
	examine := func(ch *mvcc.Chain) {
		st.ChainsScanned++
		st.absorb(space.ReclaimIntervals(ch, snaps, bound, c.hold))
	}

	// Steps 2+3: the chains reachable from groups with min(S) < CID <= bound,
	// highest-CID-first — of which only the groups above hw are news. Groups
	// at or below min(S) are the timestamp collectors'; with no snapshot at
	// all there is no lower end, and whatever GT has not taken yet is taken
	// here. The first version met of a chain is its newest at or below the
	// bound and stands for the whole chain: the ones behind it are reclaimed
	// or filed by the time the walk reaches them. A version with nothing
	// older has nothing to close.
	floor := c.hw
	if len(snaps) > 0 && snaps[0] > floor {
		floor = snaps[0]
	}
	space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid > bound {
			return true // newer than the window; keep descending
		}
		if cid <= floor {
			return false // seen, or below the window; the ordered list is done
		}
		g.Each(func(v *mvcc.Version) {
			if v.Reclaimed() || v.Older() == nil {
				return
			}
			if _, filed := v.HeldBy(); !filed {
				examine(v.Chain())
			}
		})
		return true
	})
	if bound > c.hw {
		c.hw = bound
	}

	// The snapshots that left S since they were last found holding versions:
	// their lists are what may have become garbage. An entry whose holder is
	// no longer this timestamp was re-filed by an examination above or
	// earlier in this loop.
	var gone []ts.CID
	for by := range c.held {
		if _, active := slices.BinarySearch(snaps, by); !active {
			gone = append(gone, by)
		}
	}
	for _, by := range gone {
		l := c.held[by]
		delete(c.held, by)
		for _, v := range l.vs {
			if stillHeld(v, by) {
				examine(v.Chain())
			}
		}
	}
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
	view := c.m.View()
	snaps, bound := view.Set(), view.Bound()
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
		g.Each(func(v *mvcc.Version) {
			if !v.Reclaimed() {
				st.absorb(space.ReclaimVersionIf(v, decide))
			}
		})
		return true
	})
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}
