package sts

import (
	"cmp"
	"slices"

	"hybridgc/internal/ts"
)

// View is one scan of the announcement array, kept: the announcements at or
// below a bound, oldest first, each with the scope it had when the scan
// passed it. Whatever a collector pass or a monitor asks
// about the live snapshots — the union minimum of §4.4, the unscoped minimum
// of Fig. 6, a table's or a partition's minimum (Fig. 8), the set S of
// Algorithm 1 — is a method on it, so all the answers one pass works from
// describe one state of the trackers (Fig. 9), and none of them costs a
// second scan. A scope is read once, so a snapshot is in exactly one of
// "unscoped" and "scoped to these tables" for everything the view answers.
//
// The zero View is empty and ready for Read, which reuses its buffers.
type View struct {
	bound ts.CID
	es    []entry  // ascending by cid
	set   []ts.CID // the distinct timestamps of es
}

// entry is one announcement as the scan found it. sc is the narrowed scope;
// nil is an unscoped or not yet narrowed snapshot, which constrains
// everything: the conservative side.
type entry struct {
	cid ts.CID
	sc  *Scope
	h   *Handle
}

// Read refills v from one Scan of r. bound is the commit timestamp, read by
// the caller before the scan; it is what the horizons fall back to (bound+1:
// "nothing pins it") when no announcement constrains them. An announcement
// above the bound is left out: it constrains nothing a pass bounded by bound
// may touch, and under the transaction manager's seqlock it belongs to an
// acquire that overlapped the scan and is about to retry.
func (v *View) Read(r *Registry, bound ts.CID) {
	v.bound = bound
	clear(v.es) // no handle outlives its snapshot in a reused buffer
	v.es, v.set = v.es[:0], v.set[:0]
	r.Scan(func(c ts.CID, h *Handle) {
		if c <= bound {
			v.es = append(v.es, entry{cid: c, sc: h.constraint(), h: h})
		}
	})
	slices.SortFunc(v.es, func(a, b entry) int { return cmp.Compare(a.cid, b.cid) })
	for _, e := range v.es {
		// Concurrent statements frequently share a timestamp.
		if n := len(v.set); n == 0 || v.set[n-1] != e.cid {
			v.set = append(v.set, e.cid)
		}
	}
}

// Bound returns the commit timestamp the view was read under.
func (v *View) Bound() ts.CID { return v.bound }

// Len returns the number of announcements: the active snapshots.
func (v *View) Len() int { return len(v.es) }

// Set returns the ascending distinct timestamps of every announcement — the
// S sequence the interval collector consumes (§4.2 step 1). The slice is the
// view's own: valid until the next Read, not to be modified.
func (v *View) Set() []ts.CID { return v.set }

// Horizon returns the minimum over every announcement, scoped or not (§4.4)
// — the timestamp below which the group collector may reclaim whole groups —
// or Bound()+1 when there is none; Len tells the two apart.
func (v *View) Horizon() ts.CID {
	if len(v.es) > 0 {
		return v.es[0].cid
	}
	return v.bound + 1
}

// Oldest returns the handle of an announcement at Horizon(), or nil when
// there is none.
func (v *View) Oldest() *Handle {
	if len(v.es) > 0 {
		return v.es[0].h
	}
	return nil
}

// UnscopedHorizon returns the minimum over the unscoped announcements — the
// timestamp below which only table- or partition-scoped snapshots can still
// pin versions — or Bound()+1.
func (v *View) UnscopedHorizon() ts.CID {
	for _, e := range v.es {
		if e.sc == nil {
			return e.cid
		}
	}
	return v.bound + 1
}

// TableHorizon returns the reclamation horizon for versions of table tid:
// the minimum over the announcements that are unscoped or whose scope names
// tid (a partition-scoped snapshot constrains its whole table at this
// granularity; §4.3 step 3), or Bound()+1 when nothing constrains the table.
func (v *View) TableHorizon(tid ts.TableID) ts.CID { return v.horizonFor(tid, 0, false) }

// PartitionHorizon is TableHorizon at partition grain: a snapshot scoped to
// other partitions of tid does not constrain p.
func (v *View) PartitionHorizon(tid ts.TableID, p ts.PartitionID) ts.CID {
	return v.horizonFor(tid, p, true)
}

func (v *View) horizonFor(tid ts.TableID, p ts.PartitionID, atPart bool) ts.CID {
	for _, e := range v.es {
		sc := e.sc
		if sc == nil || slices.Contains(sc.tables, tid) && (!atPart || sc.parts == nil || slices.Contains(sc.parts, p)) {
			return e.cid
		}
	}
	return v.bound + 1
}

// Each calls f for every announcement, oldest first, with its timestamp and
// handle.
func (v *View) Each(f func(c ts.CID, h *Handle)) {
	for _, e := range v.es {
		f(e.cid, e.h)
	}
}

// Rescope takes up, into the view's own entries, the scope the caller has
// just set on h. It is how the table collector's narrowing of a snapshot
// counts in the pass that discovered it; nobody else's scoping ever shows in
// a view already read.
func (v *View) Rescope(h *Handle) {
	for i := range v.es {
		if v.es[i].h == h {
			v.es[i].sc = h.constraint()
		}
	}
}
