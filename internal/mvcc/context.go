package mvcc

import (
	"sync"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// TransContext associates all record versions created by one write
// transaction (§2.2). Versions point to their TransContext; on commit the
// TransContext is pointed at a GroupCommitContext shared by every
// transaction committing in the same group, which is how one atomic CID
// store makes a whole group of versions visible at once.
type TransContext struct {
	TxnID uint64

	gcc atomic.Pointer[GroupCommitContext]

	// skipLog marks a transaction whose write set is already durable (a
	// two-phase-commit participant logged it in its prepare record), so the
	// group committer must not log it again.
	skipLog atomic.Bool

	// versions holds the transaction's versions in creation order, one slot
	// each (Version.slot is the index). A collector that reclaims a version
	// clears its slot (Space.retire), so a group still linked for its live
	// versions keeps none of its reclaimed ones on the heap.
	mu       sync.Mutex
	versions []atomic.Pointer[Version]

	// tally is the version-space accounting of the transaction's writes not
	// yet added to the shared counters (Space.Flush).
	tally tally
}

// NewTransContext returns a context for the given transaction ID.
func NewTransContext(txnID uint64) *TransContext {
	return &TransContext{TxnID: txnID}
}

// Add records a version created by this transaction (the backward link used
// for CID propagation and group reclamation) and gives it its slot.
func (tc *TransContext) Add(v *Version) {
	tc.mu.Lock()
	v.slot = uint32(len(tc.versions))
	tc.versions = append(tc.versions, atomic.Pointer[Version]{})
	tc.versions[v.slot].Store(v)
	tc.mu.Unlock()
}

// Versions returns the version slots of this transaction, in creation order;
// a slot reads nil once a collector has reclaimed its version. The slice is
// the transaction's own and must not be modified: Add only ever appends
// behind its length, so the view stays valid while the transaction is still
// writing, and once the transaction has entered group commit its slot set is
// frozen and the read takes no lock at all — this is what collectors
// iterate, once per group per pass. Before the group has a CID nothing is
// reclaimed, so the log, a prepare record and a rollback read every slot
// filled.
func (tc *TransContext) Versions() []atomic.Pointer[Version] {
	if tc.gcc.Load() == nil {
		tc.mu.Lock()
		defer tc.mu.Unlock()
	}
	return tc.versions[:len(tc.versions):len(tc.versions)]
}

// unlink clears v's slot: the transaction's list no longer reaches it.
func (tc *TransContext) unlink(v *Version) { tc.versions[v.slot].Store(nil) }

// VersionCount returns how many versions the transaction created.
func (tc *TransContext) VersionCount() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.versions)
}

// SetSkipLog marks the write set as already durable, excluding it from the
// group committer's WAL record.
func (tc *TransContext) SetSkipLog() { tc.skipLog.Store(true) }

// SkipLog reports whether the write set is already durable elsewhere.
func (tc *TransContext) SkipLog() bool { return tc.skipLog.Load() }

// Group returns the GroupCommitContext once the transaction entered group
// commit, or nil while it is still active.
func (tc *TransContext) Group() *GroupCommitContext { return tc.gcc.Load() }

// setGroup links the context into its commit group.
func (tc *TransContext) setGroup(g *GroupCommitContext) { tc.gcc.Store(g) }

// CID resolves the transaction's commit identifier, or ts.Invalid before
// commit.
func (tc *TransContext) CID() ts.CID {
	g := tc.gcc.Load()
	if g == nil {
		return ts.Invalid
	}
	return g.CID()
}

// Propagate writes the transaction's commit identifier into each of its
// version entries (the backward CID propagation of §2.2), so later visibility
// checks chase no pointers. The committing goroutine calls it on its own
// transaction once its group is published; it returns the number of versions
// stamped — those no collector reclaimed between publication and the stamp,
// which a reclaimed version no longer needs — and zero before the group has
// a CID.
func (tc *TransContext) Propagate() int {
	c := tc.CID()
	if c == ts.Invalid {
		return 0
	}
	n := 0
	vs := tc.Versions()
	for i := range vs {
		if v := vs[i].Load(); v != nil {
			v.SetCID(c)
			n++
		}
	}
	return n
}

// GroupCommitContext represents one group commit operation (§2.2, Figure 7):
// the set of transactions whose versions all share a single CID. Contexts
// are kept in a global list ordered by CID so that the group collector can
// identify whole garbage groups without traversing individual versions.
type GroupCommitContext struct {
	cid  atomic.Uint64
	txns []*TransContext

	// live counts the group's versions no collector has reclaimed yet.
	// Whoever takes it to zero unlinks the group from the list, wherever it
	// sits (Space.retire), so "drained" is one load and no collector has to
	// walk the list looking for empty groups.
	live atomic.Int64

	// List linkage. Structural changes are serialized by the owning
	// GroupList's mutex, but the pointers are atomics so iterators can walk
	// the list without taking it — commit publication must stay cheap while
	// collectors read the list.
	prev, next atomic.Pointer[GroupCommitContext]
	linked     bool        // guarded by the GroupList mutex
	removed    atomic.Bool // written under the GroupList mutex
}

// NewGroup creates a commit group over the given transaction contexts and
// points each of them at the group. The CID is still unassigned; the group
// becomes visible the moment AssignCID stores it.
func NewGroup(txns []*TransContext) *GroupCommitContext {
	g := &GroupCommitContext{txns: txns}
	var n int64
	for _, tc := range txns {
		tc.setGroup(g)
		n += int64(len(tc.Versions()))
	}
	// Nothing can be reclaimed before the CID is assigned, so the count is
	// in place before anyone decrements it.
	g.live.Store(n)
	return g
}

// AssignCID atomically publishes the group's commit identifier. After this
// single store, every version of every member transaction resolves to c.
func (g *GroupCommitContext) AssignCID(c ts.CID) { g.cid.Store(uint64(c)) }

// CID returns the group's commit identifier, or ts.Invalid before assignment.
func (g *GroupCommitContext) CID() ts.CID { return ts.CID(g.cid.Load()) }

// Each calls fn on every version of the group not yet reclaimed, across all
// member transactions. A version reclaimed while the walk runs may still be
// handed to fn, which checks Reclaimed under whatever it acts on. A committed
// group's slot set is frozen, so the walk copies nothing and takes no lock.
func (g *GroupCommitContext) Each(fn func(*Version)) {
	for _, tc := range g.txns {
		vs := tc.Versions()
		for i := range vs {
			if v := vs[i].Load(); v != nil {
				fn(v)
			}
		}
	}
}

// Live returns how many of the group's versions are not reclaimed yet. Zero
// means the group is drained and no longer (or about to be no longer) in the
// list.
func (g *GroupCommitContext) Live() int64 { return g.live.Load() }

// GroupList is the ordered list of GroupCommitContext objects (Figure 7).
// Groups are appended in commit order, which is CID order, and unlinked by
// whichever collector reclaims their last version, wherever they sit.
//
// Structural changes (Append/Remove) serialize on the mutex, but their
// critical sections are O(1) pointer swings and iteration does not take the
// lock: Ascending/Descending walk the atomic links live, so commit
// publication does not contend with collectors reading the list.
//
// An unlinked group points at nothing. A reclaimed version leaves its
// transaction's slot list, so a linked group reaches only its live versions;
// but a version a reader or a collector still holds reaches its group, and
// if that still pointed at its old neighbours, which point at theirs, one
// long-held version would keep the whole commit history of a run in memory.
// An iterator therefore reads its next step before it hands a group to fn,
// which is what usually unlinks it, and when it does find itself on an
// unlinked group it finds its place again by CID (seek).
type GroupList struct {
	mu    sync.Mutex
	head  atomic.Pointer[GroupCommitContext]
	tail  atomic.Pointer[GroupCommitContext]
	count atomic.Int64
}

// NewGroupList returns an empty list.
func NewGroupList() *GroupList { return &GroupList{} }

// Append adds a freshly committed group at the tail. Caller must append in
// CID order (the group committer serializes commits, so this holds). A group
// with nothing left to reclaim — it never had a version, or a collector
// reached its versions through their chains before the committer got here —
// is not linked at all.
func (gl *GroupList) Append(g *GroupCommitContext) {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if g.removed.Load() || g.live.Load() == 0 {
		g.removed.Store(true)
		return
	}
	g.linked = true
	t := gl.tail.Load()
	g.prev.Store(t)
	// Publish the tail before linking the predecessor's next pointer: a
	// descending iterator that loads the new tail finds its prev already
	// set; an ascending iterator either misses g (it was appended mid-scan)
	// or sees it fully linked.
	gl.tail.Store(g)
	if t != nil {
		t.next.Store(g)
	} else {
		gl.head.Store(g)
	}
	gl.count.Add(1)
}

// Remove unlinks a fully reclaimed group. Removing twice is a no-op, and
// removing a group that was never appended keeps it from being appended.
func (gl *GroupList) Remove(g *GroupCommitContext) {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if g.removed.Load() {
		return
	}
	if !g.linked {
		g.removed.Store(true)
		return
	}
	p, n := g.prev.Load(), g.next.Load()
	if p != nil {
		p.next.Store(n)
	} else {
		gl.head.Store(n)
	}
	if n != nil {
		n.prev.Store(p)
	} else {
		gl.tail.Store(p)
	}
	gl.count.Add(-1)
	// The flag goes up before the pointers go: an iterator that reads a nil
	// pointer and then the flag can tell the end of the list from a group
	// unlinked under it.
	g.removed.Store(true)
	g.prev.Store(nil)
	g.next.Store(nil)
}

// Len returns the number of groups currently linked.
func (gl *GroupList) Len() int {
	return int(gl.count.Load())
}

// Ascending calls fn on each group from the oldest CID upward until fn
// returns false. Iteration is lock-free and live: fn may unlink groups,
// including the one it was handed; groups appended or removed mid-scan may or
// may not be visited, a group unlinked just before the walk reached it may
// still be handed to fn, and CIDs along a walk strictly increase.
func (gl *GroupList) Ascending(fn func(*GroupCommitContext) bool) {
	for g := gl.head.Load(); g != nil; {
		n, gone := g.next.Load(), g.removed.Load()
		if !fn(g) {
			return
		}
		if n == nil && gone {
			n = gl.seek(g.CID(), true)
		}
		g = n
	}
}

// Descending calls fn on each group from the newest CID downward until fn
// returns false (the interval collector's highest-CID-first iteration, §4.2
// step 3). Same liveness contract as Ascending, CIDs strictly decreasing.
func (gl *GroupList) Descending(fn func(*GroupCommitContext) bool) {
	for g := gl.tail.Load(); g != nil; {
		p, gone := g.prev.Load(), g.removed.Load()
		if !fn(g) {
			return
		}
		if p == nil && gone {
			p = gl.seek(g.CID(), false)
		}
		g = p
	}
}

// seek is how a walk that stepped onto an unlinked group finds its place
// again: the first linked group above cid from the head, or below it from the
// tail. It costs the distance from that end, and a walk needs it only when
// the step it had read ahead was unlinked before it got there.
func (gl *GroupList) seek(cid ts.CID, up bool) *GroupCommitContext {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if up {
		g := gl.head.Load()
		for g != nil && g.CID() <= cid {
			g = g.next.Load()
		}
		return g
	}
	g := gl.tail.Load()
	for g != nil && g.CID() >= cid {
		g = g.prev.Load()
	}
	return g
}
