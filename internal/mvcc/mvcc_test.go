package mvcc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"hybridgc/internal/ts"
)

// fakeRecord implements RecordRef over plain fields for unit tests.
type fakeRecord struct {
	mu        sync.Mutex
	image     []byte
	exists    bool
	versioned bool
}

func (r *fakeRecord) InstallImage(img []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.image = img
	r.exists = true
}

func (r *fakeRecord) DropRecord() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.image = nil
	r.exists = false
}

func (r *fakeRecord) SetVersioned(v bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.versioned = v
}

func (r *fakeRecord) state() (img string, exists, versioned bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return string(r.image), r.exists, r.versioned
}

// groupOfOne returns a commit group holding one version of record rid: a
// group with nothing to reclaim is never linked into the list.
func groupOfOne(rid uint64) *GroupCommitContext {
	tc := NewTransContext(rid)
	tc.Add(NewVersion(OpUpdate, key(rid), nil, tc))
	return NewGroup([]*TransContext{tc})
}

func key(rid uint64) ts.RecordKey { return ts.RecordKey{Table: 1, RID: ts.RID(rid)} }

// create registers key's chain and counts it at once, as the flush of the
// transaction whose write created it would.
func create(h *HashTable, k ts.RecordKey) *Chain {
	c, chains, occupied := h.GetOrCreate(k, &fakeRecord{})
	h.add(chains, occupied)
	return c
}

// commitOne wraps a single version in its own single-transaction group with
// the given CID and registers the group, flushing the transaction's tally
// first as the commit leader does.
func commitOne(s *Space, v *Version, cid ts.CID) *GroupCommitContext {
	s.Flush(v.tctx)
	g := NewGroup([]*TransContext{v.tctx})
	g.AssignCID(cid)
	s.Groups.Append(g)
	return g
}

// addVersion creates, links and optionally commits one version.
func addVersion(t *testing.T, s *Space, rec RecordRef, op OpType, rid uint64, img string, cid ts.CID) *Version {
	t.Helper()
	tc := NewTransContext(uint64(cid))
	var payload []byte
	if op != OpDelete {
		payload = []byte(img)
	}
	v := NewVersion(op, key(rid), payload, tc)
	tc.Add(v)
	if _, err := s.Prepend(rec, v, nil); err != nil {
		t.Fatalf("Prepend: %v", err)
	}
	if cid != ts.Invalid {
		commitOne(s, v, cid)
	}
	return v
}

func TestIndirectCIDAssignment(t *testing.T) {
	tc1 := NewTransContext(1)
	tc2 := NewTransContext(2)
	v1 := NewVersion(OpUpdate, key(1), []byte("a"), tc1)
	v2 := NewVersion(OpUpdate, key(2), []byte("b"), tc2)
	tc1.Add(v1)
	tc2.Add(v2)

	if v1.Committed() || tc1.CID() != ts.Invalid {
		t.Fatal("version must be uncommitted before group commit")
	}
	g := NewGroup([]*TransContext{tc1, tc2})
	if v1.Committed() {
		t.Fatal("group without CID must still be invisible")
	}
	// One atomic store makes every version of both transactions visible.
	g.AssignCID(42)
	if v1.CID() != 42 || v2.CID() != 42 {
		t.Fatalf("CIDs = %d,%d want 42,42", v1.CID(), v2.CID())
	}
	if !v1.Propagated() {
		t.Fatal("lazy resolution must cache the CID on the version")
	}
}

func TestBackwardPropagation(t *testing.T) {
	tc := NewTransContext(1)
	var vs []*Version
	for i := 0; i < 5; i++ {
		v := NewVersion(OpUpdate, key(uint64(i)), []byte("x"), tc)
		tc.Add(v)
		vs = append(vs, v)
	}
	g := NewGroup([]*TransContext{tc})
	g.AssignCID(7)
	if n := tc.Propagate(); n != 5 {
		t.Fatalf("Propagate touched %d versions, want 5", n)
	}
	for _, v := range vs {
		if !v.Propagated() || v.CID() != 7 {
			t.Fatalf("version %v not propagated", v)
		}
	}
	// Propagate before the group has a CID is a no-op.
	tc2 := NewTransContext(2)
	tc2.Add(NewVersion(OpUpdate, key(9), []byte("y"), tc2))
	NewGroup([]*TransContext{tc2})
	if n := tc2.Propagate(); n != 0 {
		t.Fatalf("Propagate on unassigned group = %d, want 0", n)
	}
}

func TestGroupListOrdering(t *testing.T) {
	gl := NewGroupList()
	var gs []*GroupCommitContext
	for i := 1; i <= 4; i++ {
		g := groupOfOne(uint64(i))
		g.AssignCID(ts.CID(i * 10))
		gl.Append(g)
		gs = append(gs, g)
	}
	var asc []ts.CID
	gl.Ascending(func(g *GroupCommitContext) bool {
		asc = append(asc, g.CID())
		return true
	})
	if fmt.Sprint(asc) != "[10 20 30 40]" {
		t.Fatalf("ascending = %v", asc)
	}
	var desc []ts.CID
	gl.Descending(func(g *GroupCommitContext) bool {
		desc = append(desc, g.CID())
		return g.CID() > 20 // early stop
	})
	if fmt.Sprint(desc) != "[40 30 20]" {
		t.Fatalf("descending with stop = %v", desc)
	}
	gl.Remove(gs[0])
	gl.Remove(gs[0]) // double remove is a no-op
	gl.Remove(gs[2])
	if gl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", gl.Len())
	}
	asc = asc[:0]
	gl.Ascending(func(g *GroupCommitContext) bool {
		asc = append(asc, g.CID())
		return true
	})
	if fmt.Sprint(asc) != "[20 40]" {
		t.Fatalf("ascending after removal = %v", asc)
	}
}

func TestVisibleTraversal(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)
	addVersion(t, s, rec, OpUpdate, 1, "v1", 10)
	addVersion(t, s, rec, OpUpdate, 1, "v2", 20)

	c := s.HT.Get(key(1))
	if c == nil {
		t.Fatal("chain not registered")
	}
	cases := []struct {
		at    ts.CID
		want  string
		steps int
	}{
		{25, "v2", 1},
		{20, "v2", 1},
		{19, "v1", 2},
		{10, "v1", 2},
		{7, "v0", 3},
		{4, "", 3}, // nothing visible, full traversal
	}
	for _, cse := range cases {
		v, steps := c.Visible(cse.at)
		got := ""
		if v != nil {
			got = string(v.Payload)
		}
		if got != cse.want || steps != cse.steps {
			t.Errorf("Visible(%d) = %q/%d steps, want %q/%d", cse.at, got, steps, cse.want, cse.steps)
		}
	}
	if s.Live() != 3 || s.Created() != 3 {
		t.Fatalf("live=%d created=%d", s.Live(), s.Created())
	}
}

func TestPrependConflictCheck(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)

	tcOther := NewTransContext(99)
	uncommitted := NewVersion(OpUpdate, key(1), []byte("dirty"), tcOther)
	tcOther.Add(uncommitted)
	errConflict := fmt.Errorf("write conflict")
	check := func(head *Version) error {
		if head != nil && !head.Committed() {
			return errConflict
		}
		return nil
	}
	if _, err := s.Prepend(rec, uncommitted, check); err != nil {
		t.Fatalf("first uncommitted write must pass: %v", err)
	}
	tc2 := NewTransContext(100)
	v2 := NewVersion(OpUpdate, key(1), []byte("other"), tc2)
	tc2.Add(v2)
	if _, err := s.Prepend(rec, v2, check); err != errConflict {
		t.Fatalf("second writer must conflict, got %v", err)
	}
}

func TestRollbackUpdate(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)
	tc := NewTransContext(9)
	v := NewVersion(OpUpdate, key(1), []byte("dirty"), tc)
	tc.Add(v)
	if _, err := s.Prepend(rec, v, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Rollback(v) {
		t.Fatal("rollback must unlink")
	}
	if s.Rollback(v) {
		t.Fatal("second rollback must be a no-op")
	}
	s.Flush(tc)
	c := s.HT.Get(key(1))
	if c == nil || c.Len() != 1 {
		t.Fatalf("chain must retain the committed insert")
	}
	if got, _ := c.Visible(10); string(got.Payload) != "v0" {
		t.Fatal("committed version must survive rollback")
	}
	if s.Live() != 1 || s.RolledBackTotal() != 1 {
		t.Fatalf("live=%d rolled=%d", s.Live(), s.RolledBackTotal())
	}
}

func TestRollbackInsertDropsRecord(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{exists: true}
	tc := NewTransContext(9)
	v := NewVersion(OpInsert, key(7), []byte("new"), tc)
	tc.Add(v)
	if _, err := s.Prepend(rec, v, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Rollback(v) {
		t.Fatal("rollback failed")
	}
	s.Flush(tc)
	if _, exists, _ := rec.state(); exists {
		t.Fatal("rolled-back insert must drop the record")
	}
	if s.HT.Get(key(7)) != nil {
		t.Fatal("chain must be unregistered")
	}
	if s.HT.ChainCount() != 0 {
		t.Fatal("chain count must drop to zero")
	}
}

func TestReclaimBelowMigratesNewestCandidate(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)
	addVersion(t, s, rec, OpUpdate, 1, "v1", 10)
	addVersion(t, s, rec, OpUpdate, 1, "v2", 20)
	c := s.HT.Get(key(1))

	// Horizon 15: v0 and v1 are candidates; v1's image must migrate so a
	// fallback reader at ts in [10,20) still sees "v1".
	res := s.ReclaimBelow(c, 15)
	if res.Versions != 2 || !res.Migrated || res.Dropped || res.Emptied {
		t.Fatalf("unexpected result %+v", res)
	}
	img, exists, versioned := rec.state()
	if img != "v1" || !exists || !versioned {
		t.Fatalf("record state = %q,%v,%v", img, exists, versioned)
	}
	if v, _ := c.Visible(15); v != nil {
		t.Fatal("no chain version may be visible at 15 — fallback covers it")
	}
	if v, _ := c.Visible(20); string(v.Payload) != "v2" {
		t.Fatal("v2 must stay")
	}
	// Idempotence.
	if res := s.ReclaimBelow(c, 15); res.Versions != 0 {
		t.Fatalf("second reclaim must collect nothing, got %+v", res)
	}
	if s.Live() != 1 || s.ReclaimedTotal() != 2 || s.MigratedTotal() != 1 {
		t.Fatalf("live=%d reclaimed=%d migrated=%d", s.Live(), s.ReclaimedTotal(), s.MigratedTotal())
	}
}

func TestReclaimBelowEmptiesChain(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)
	addVersion(t, s, rec, OpUpdate, 1, "v1", 10)
	c := s.HT.Get(key(1))

	res := s.ReclaimBelow(c, 100)
	if res.Versions != 2 || !res.Emptied {
		t.Fatalf("unexpected result %+v", res)
	}
	img, exists, versioned := rec.state()
	if img != "v1" || !exists || versioned {
		t.Fatalf("record state = %q,%v,%v; want migrated image, unversioned", img, exists, versioned)
	}
	if s.HT.Get(key(1)) != nil {
		t.Fatal("empty chain must leave the hash table")
	}
}

func TestReclaimBelowDelete(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{exists: true}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)
	addVersion(t, s, rec, OpDelete, 1, "", 10)
	c := s.HT.Get(key(1))

	res := s.ReclaimBelow(c, 100)
	if res.Versions != 2 || !res.Dropped || !res.Emptied || res.Migrated {
		t.Fatalf("unexpected result %+v", res)
	}
	if _, exists, _ := rec.state(); exists {
		t.Fatal("migrated DELETE must drop the record")
	}
	if s.HT.Get(key(1)) != nil {
		t.Fatal("chain must be unregistered")
	}
}

func TestReclaimBelowSkipsUncommitted(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "v0", 5)
	tc := NewTransContext(9)
	dirty := NewVersion(OpUpdate, key(1), []byte("dirty"), tc)
	tc.Add(dirty)
	if _, err := s.Prepend(rec, dirty, nil); err != nil {
		t.Fatal(err)
	}
	res := s.ReclaimBelow(s.HT.Get(key(1)), 100)
	if res.Versions != 1 || res.Emptied {
		t.Fatalf("must reclaim only the committed version: %+v", res)
	}
	if h := s.HT.Get(key(1)).Head(); h != dirty {
		t.Fatal("uncommitted head must survive")
	}
}

func TestReclaimIntervalsFigure1(t *testing.T) {
	// Figure 1: versions v11..v15 at CIDs 1,2,4,5,99; active snapshots at 3
	// and 99. Interval GC reclaims v11 (interval [1,2)), v13 ([4,5)) and v14
	// ([5,99)); v12 ([2,4)) is pinned by snapshot 3 and v15 ([99,inf)) is the
	// newest.
	s := NewSpace(64)
	rec := &fakeRecord{}
	cidsIn := []ts.CID{1, 2, 4, 5, 99}
	for i, c := range cidsIn {
		op := OpUpdate
		if i == 0 {
			op = OpInsert
		}
		addVersion(t, s, rec, op, 1, fmt.Sprintf("v1%d", i+1), c)
	}
	c := s.HT.Get(key(1))
	n := s.ReclaimIntervals(c, []ts.CID{3, 99}, 100, nil).Versions
	if n != 3 {
		t.Fatalf("reclaimed %d versions, want 3", n)
	}
	left := c.CommittedCIDs()
	if fmt.Sprint(left) != "[2 99]" {
		t.Fatalf("remaining CIDs = %v, want [2 99]", left)
	}
	// Snapshot 3 still reads v12, snapshot 99 reads v15.
	if v, _ := c.Visible(3); string(v.Payload) != "v12" {
		t.Fatal("snapshot 3 must still see v12")
	}
	if v, _ := c.Visible(99); string(v.Payload) != "v15" {
		t.Fatal("snapshot 99 must still see v15")
	}
}

func TestReclaimIntervalsNeverTouchesNewest(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "a", 1)
	addVersion(t, s, rec, OpUpdate, 1, "b", 2)
	c := s.HT.Get(key(1))
	if n := s.ReclaimIntervals(c, []ts.CID{100}, 100, nil).Versions; n != 1 {
		t.Fatalf("reclaimed %d, want 1 (only the older version)", n)
	}
	if got := c.CommittedCIDs(); fmt.Sprint(got) != "[2]" {
		t.Fatalf("remaining = %v", got)
	}
	if n := s.ReclaimIntervals(c, []ts.CID{100}, 100, nil).Versions; n != 0 {
		t.Fatal("single-version chain must not shrink")
	}
}

func TestReclaimIntervalsEmptySnapshotSet(t *testing.T) {
	// With no active snapshots the bound alone governs: everything but the
	// newest committed version below the bound is invisible to any present
	// or future reader.
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "a", 1)
	addVersion(t, s, rec, OpUpdate, 1, "b", 2)
	c := s.HT.Get(key(1))
	if n := s.ReclaimIntervals(c, nil, 2, nil).Versions; n != 1 {
		t.Fatalf("reclaimed %d with empty S and bound 2, want 1", n)
	}
	if got := c.CommittedCIDs(); fmt.Sprint(got) != "[2]" {
		t.Fatalf("remaining = %v", got)
	}
}

func TestReclaimIntervalsBound(t *testing.T) {
	// Versions above the bound may become visible to snapshots acquired
	// after S was collected; they must never be interval-reclaimed.
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "a", 10)
	addVersion(t, s, rec, OpUpdate, 1, "b", 11)
	addVersion(t, s, rec, OpUpdate, 1, "c", 12)
	c := s.HT.Get(key(1))
	// Bound 10 (a snapshot at 11 may be in flight, unregistered): nothing
	// above the bound is eligible.
	if n := s.ReclaimIntervals(c, []ts.CID{10}, 10, nil).Versions; n != 0 {
		t.Fatalf("reclaimed %d versions above bound, want 0", n)
	}
	if got := c.CommittedCIDs(); fmt.Sprint(got) != "[10 11 12]" {
		t.Fatalf("remaining = %v", got)
	}
	// Bound 12: version 11 (interval [11,12), no snapshot inside, successor
	// committed at or below the bound) is garbage; version 10 stays pinned
	// by the snapshot at 10.
	if n := s.ReclaimIntervals(c, []ts.CID{10}, 12, nil).Versions; n != 1 {
		t.Fatalf("reclaimed %d with bound 12, want 1", n)
	}
	if got := c.CommittedCIDs(); fmt.Sprint(got) != "[10 12]" {
		t.Fatalf("remaining = %v", got)
	}
}

func TestHashTableCollisions(t *testing.T) {
	h := NewHashTable(4) // tiny table forces collisions
	if len(h.buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(h.buckets))
	}
	for i := 0; i < 32; i++ {
		create(h, key(uint64(i)))
	}
	st := h.Stats()
	if st.Chains != 32 {
		t.Fatalf("chains = %d", st.Chains)
	}
	if st.CollisionRatio != 8 {
		t.Fatalf("collision ratio = %v, want 8", st.CollisionRatio)
	}
	if st.MaxBucketLen < 1 || st.OccupiedBuckets == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Lookups must find every chain.
	for i := 0; i < 32; i++ {
		if h.Get(key(uint64(i))) == nil {
			t.Fatalf("chain %d not found", i)
		}
	}
	if h.Get(key(999)) != nil {
		t.Fatal("absent key must return nil")
	}
	if st := h.Stats(); st.Lookups != 33 {
		t.Fatalf("lookups = %d, want 33", st.Lookups)
	}
}

// TestHashStatsCounters checks the counters Stats reads against a walk of
// the buckets through random inserts and removals: OccupiedBuckets is exact
// and MaxBucketLen is the high-water mark of every bucket's length.
func TestHashStatsCounters(t *testing.T) {
	h := NewHashTable(16)
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]*Chain{}
	high := 0
	for step := 0; step < 2000; step++ {
		k := uint64(rng.Intn(64))
		if c, ok := live[k]; ok && rng.Intn(2) == 0 {
			h.add(h.Remove(c))
			delete(live, k)
		} else if !ok {
			live[k] = create(h, key(k))
		}
		occupied := 0
		for i := range h.buckets {
			n := 0
			for c := h.buckets[i].head.Load(); c != nil; c = c.bucketNext.Load() {
				n++
			}
			if n > 0 {
				occupied++
			}
			high = max(high, n)
		}
		if st := h.Stats(); st.OccupiedBuckets != occupied || st.MaxBucketLen != high || st.Chains != int64(len(live)) {
			t.Fatalf("step %d: stats %+v, walk: %d occupied, high-water %d, %d chains", step, st, occupied, high, len(live))
		}
	}
}

func TestHashTableRemove(t *testing.T) {
	h := NewHashTable(2)
	a := create(h, key(1))
	b := create(h, key(2))
	cch := create(h, key(3))
	h.add(h.Remove(b))
	if h.Get(key(2)) != nil {
		t.Fatal("removed chain still found")
	}
	if h.Get(key(1)) != a || h.Get(key(3)) != cch {
		t.Fatal("other chains must survive removal")
	}
	h.add(h.Remove(a))
	h.add(h.Remove(cch))
	if h.ChainCount() != 0 {
		t.Fatalf("chain count = %d", h.ChainCount())
	}
}

// TestTallyLagBound: one transaction links 200 versions, each on a new chain,
// and rolls them all back. Live() and the chain count stay within tallyFlush
// of what is linked at every step — the tally flushes by itself — and after
// the final flush every counter is exact.
func TestTallyLagBound(t *testing.T) {
	s := NewSpace(64)
	tc := NewTransContext(1)
	const n = 200
	var vs []*Version
	lag := func(step string, linked int) {
		t.Helper()
		if d := int64(linked) - s.Live(); d <= -tallyFlush || d >= tallyFlush {
			t.Fatalf("%s: %d linked, Live() = %d", step, linked, s.Live())
		}
		if d := int64(linked) - s.HT.ChainCount(); d <= -tallyFlush || d >= tallyFlush {
			t.Fatalf("%s: %d chains, ChainCount() = %d", step, linked, s.HT.ChainCount())
		}
	}
	for i := 0; i < n; i++ {
		v := NewVersion(OpInsert, key(uint64(i+1)), []byte("x"), tc)
		tc.Add(v)
		if _, err := s.Prepend(&fakeRecord{exists: true}, v, nil); err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
		lag(fmt.Sprintf("link %d", i), i+1)
	}
	if s.Live() == 0 {
		t.Fatal("a tally past tallyFlush versions never flushed")
	}
	for i := n - 1; i >= 0; i-- {
		if !s.Rollback(vs[i]) {
			t.Fatalf("rollback %d failed", i)
		}
		lag(fmt.Sprintf("rollback %d", i), i)
	}
	s.Flush(tc)
	if s.Live() != 0 || s.LiveBytes() != 0 || s.Created() != n || s.RolledBackTotal() != n {
		t.Fatalf("after flush: live=%d bytes=%d created=%d rolled=%d", s.Live(), s.LiveBytes(), s.Created(), s.RolledBackTotal())
	}
	if st := s.HT.Stats(); st.Chains != 0 || st.OccupiedBuckets != 0 {
		t.Fatalf("after flush: %+v", st)
	}
}

func TestForEach(t *testing.T) {
	h := NewHashTable(8)
	for i := 0; i < 10; i++ {
		h.GetOrCreate(key(uint64(i)), &fakeRecord{})
	}
	n := 0
	h.ForEach(func(*Chain) bool { n++; return true })
	if n != 10 {
		t.Fatalf("visited %d chains, want 10", n)
	}
	n = 0
	h.ForEach(func(*Chain) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestConcurrentReadersDuringReclaim hammers one chain with readers while a
// collector repeatedly reclaims; readers must always observe either a valid
// chain version or the migrated table image, never a torn state.
func TestConcurrentReadersDuringReclaim(t *testing.T) {
	s := NewSpace(256)
	rec := &fakeRecord{}
	var next atomic.Uint64
	next.Store(1)
	addVersion(t, s, rec, OpInsert, 1, "img-1", 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: keeps appending committed versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			cid := ts.CID(next.Add(1))
			tc := NewTransContext(uint64(cid))
			v := NewVersion(OpUpdate, key(1), []byte(fmt.Sprintf("img-%d", cid)), tc)
			tc.Add(v)
			if _, err := s.Prepend(rec, v, nil); err != nil {
				t.Errorf("prepend: %v", err)
				return
			}
			commitOne(s, v, cid)
		}
		close(stop)
	}()
	// Collector: reclaims below the current horizon.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c := s.HT.Get(key(1)); c != nil {
				s.ReclaimBelow(c, ts.CID(next.Load()))
			}
		}
	}()
	// Readers: snapshot at the current horizon must always see something.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				at := ts.CID(next.Load())
				var img string
				if c := s.HT.Get(key(1)); c != nil {
					if v, _ := c.Visible(at); v != nil {
						img = string(v.Payload)
					}
				}
				if img == "" {
					got, exists, _ := rec.state()
					if !exists {
						t.Error("record vanished for reader")
						return
					}
					img = got
				}
				if img == "" {
					t.Error("reader observed empty image")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReclaimQuickModel property-checks the two reclamation primitives with
// testing/quick: for random version histories and random pinned snapshot
// sets, interval and timestamp reclamation must preserve exactly what every
// pinned snapshot (and any future reader) observes, and must be idempotent.
func TestReclaimQuickModel(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := seed
		next := func(n int) int {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return int((rnd >> 33) % uint64(n))
		}
		s := NewSpace(64)
		rec := &fakeRecord{}
		// Build a committed history with strictly increasing CIDs.
		nVersions := 2 + next(10)
		cids := make([]ts.CID, 0, nVersions)
		cid := ts.CID(0)
		for i := 0; i < nVersions; i++ {
			cid += ts.CID(1 + next(4))
			op := OpUpdate
			if i == 0 {
				op = OpInsert
			}
			addVersion(t, s, rec, op, 1, fmt.Sprintf("img-%d", cid), cid)
			cids = append(cids, cid)
		}
		maxCID := cids[len(cids)-1]
		// Random pinned snapshot set within [1, maxCID].
		var snaps []ts.CID
		for v := ts.CID(1); v <= maxCID; v++ {
			if next(3) == 0 {
				snaps = append(snaps, v)
			}
		}
		// Model: visible image at ts = newest cid <= ts.
		modelAt := func(at ts.CID) (string, bool) {
			var out string
			found := false
			for _, c := range cids {
				if c <= at {
					out = fmt.Sprintf("img-%d", c)
					found = true
				}
			}
			return out, found
		}
		readAt := func(at ts.CID) (string, bool) {
			if ch := s.HT.Get(key(1)); ch != nil {
				if v, _ := ch.Visible(at); v != nil {
					return string(v.Payload), true
				}
			}
			img, exists, _ := rec.state()
			if !exists || img == "" {
				return "", false
			}
			return img, true
		}
		check := func() bool {
			// Every pinned snapshot and every future reader (ts >= maxCID)
			// must read the model's answer.
			probes := append(append([]ts.CID{}, snaps...), maxCID, maxCID+3)
			for _, at := range probes {
				wantImg, wantOK := modelAt(at)
				gotImg, gotOK := readAt(at)
				if wantOK != gotOK || (wantOK && wantImg != gotImg) {
					return false
				}
			}
			return true
		}
		ch := s.HT.Get(key(1))
		// Random interleaving of the two primitives, then both again for
		// idempotence.
		minSnap := maxCID + 1
		if len(snaps) > 0 {
			minSnap = snaps[0]
		}
		for pass := 0; pass < 2; pass++ {
			if next(2) == 0 {
				s.ReclaimIntervals(ch, snaps, maxCID, nil)
				if !check() {
					return false
				}
			}
			s.ReclaimBelow(ch, minSnap)
			if !check() {
				return false
			}
			s.ReclaimIntervals(ch, snaps, maxCID, nil)
			if !check() {
				return false
			}
		}
		// Idempotence: nothing further to reclaim.
		if n := s.ReclaimIntervals(ch, snaps, maxCID, nil).Versions; n != 0 {
			return false
		}
		if res := s.ReclaimBelow(ch, minSnap); res.Versions != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestLiveBytesAccounting(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	v := addVersion(t, s, rec, OpInsert, 1, "four", 5)
	want := int64(versionHeaderBytes + 4)
	if got := s.LiveBytes(); got != want {
		t.Fatalf("LiveBytes = %d, want %d", got, want)
	}
	addVersion(t, s, rec, OpUpdate, 1, "sixsix", 10)
	want += versionHeaderBytes + 6
	if got := s.LiveBytes(); got != want {
		t.Fatalf("LiveBytes = %d, want %d", got, want)
	}
	_ = v
	// Full reclamation returns to zero.
	s.ReclaimBelow(s.HT.Get(key(1)), 100)
	if got := s.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes after reclaim = %d", got)
	}
	// Rollback accounting.
	tc := NewTransContext(9)
	d := NewVersion(OpUpdate, key(2), []byte("x"), tc)
	tc.Add(d)
	rec2 := &fakeRecord{}
	if _, err := s.Prepend(rec2, d, nil); err != nil {
		t.Fatal(err)
	}
	// An uncommitted version counts once its transaction flushes.
	if got := s.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes before the flush = %d", got)
	}
	s.Flush(tc)
	if got := s.LiveBytes(); got != versionHeaderBytes+1 {
		t.Fatalf("LiveBytes = %d", got)
	}
	s.Rollback(d)
	s.Flush(tc)
	if got := s.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes after rollback = %d", got)
	}
}

// TestReclaimIntervalsNamesTheHolderOnce: a version kept inside a closed
// interval is reported with the smallest snapshot inside it, once; examining
// the chain again while that snapshot lives reports nothing; when it has left,
// the next holder is reported, and with none left the version goes.
func TestReclaimIntervalsNamesTheHolderOnce(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	addVersion(t, s, rec, OpInsert, 1, "a", 10)
	kept := addVersion(t, s, rec, OpUpdate, 1, "b", 20)
	addVersion(t, s, rec, OpUpdate, 1, "c", 30)
	c := s.HT.Get(key(1))
	type report struct {
		cid, by ts.CID
	}
	var got []report
	held := func(v *Version, by ts.CID) { got = append(got, report{v.CID(), by}) }

	// Snapshots at 22 and 25 sit inside [20,30); nothing sits inside [10,20).
	if res := s.ReclaimIntervals(c, []ts.CID{22, 25, 40}, 40, held); res.Versions != 1 {
		t.Fatalf("reclaimed %d, want 1 (the version at 10)", res.Versions)
	}
	if fmt.Sprint(got) != "[{20 22}]" {
		t.Fatalf("held reports = %v, want the version at 20 held by 22", got)
	}
	if by, ok := kept.HeldBy(); !ok || by != 22 {
		t.Fatalf("HeldBy = %d,%v", by, ok)
	}
	s.ReclaimIntervals(c, []ts.CID{22, 25, 40}, 40, held)
	if len(got) != 1 {
		t.Fatalf("a second examination under the same holder reported again: %v", got)
	}
	s.ReclaimIntervals(c, []ts.CID{25, 40}, 40, held)
	if fmt.Sprint(got) != "[{20 22} {20 25}]" {
		t.Fatalf("held reports = %v, want the next holder, 25", got)
	}
	if res := s.ReclaimIntervals(c, []ts.CID{40}, 40, held); res.Versions != 1 || len(got) != 2 {
		t.Fatalf("with no holder left: reclaimed %d, reports %v", res.Versions, got)
	}
	if got := c.CommittedCIDs(); fmt.Sprint(got) != "[30]" {
		t.Fatalf("remaining = %v, want [30]", got)
	}
}

// TestCountersOffTheReadLine pins the padding of Space and HashTable: every
// counter a flush or a collector adds to sits at least a cache line past the
// fields every operation reads, so the adds never invalidate the line those
// reads load.
func TestCountersOffTheReadLine(t *testing.T) {
	check := func(typ string, readEnd uintptr, counters map[string]uintptr) {
		t.Helper()
		for name, off := range counters {
			if off < readEnd+64 {
				t.Errorf("%s.%s at offset %d, within a cache line of the read-mostly fields ending at %d", typ, name, off, readEnd)
			}
		}
	}
	var s Space
	check("Space", max(
		unsafe.Offsetof(s.HT)+unsafe.Sizeof(s.HT),
		unsafe.Offsetof(s.Groups)+unsafe.Sizeof(s.Groups),
	), map[string]uintptr{
		"live":      unsafe.Offsetof(s.live),
		"liveBytes": unsafe.Offsetof(s.liveBytes),
		"created":   unsafe.Offsetof(s.created),
		"reclaimed": unsafe.Offsetof(s.reclaimed),
		"rolled":    unsafe.Offsetof(s.rolled),
		"migrated":  unsafe.Offsetof(s.migrated),
	})
	var h HashTable
	check("HashTable", max(
		unsafe.Offsetof(h.buckets)+unsafe.Sizeof(h.buckets),
		unsafe.Offsetof(h.mask)+unsafe.Sizeof(h.mask),
		unsafe.Offsetof(h.maxLen)+unsafe.Sizeof(h.maxLen),
	), map[string]uintptr{
		"chains":   unsafe.Offsetof(h.chains),
		"occupied": unsafe.Offsetof(h.occupied),
		"stats":    unsafe.Offsetof(h.stats),
	})
}

// TestSizes pins what a version and a transaction context cost: the slot
// index sits in the padding after Version.Op, so a version stays 96 bytes
// (versionHeaderBytes accounts that much), and the slot list keeps the
// TransContext, which outlives its transaction while its group holds a live
// version, in the 80-byte size class the tally's field widths are chosen for.
func TestSizes(t *testing.T) {
	if n := unsafe.Sizeof(Version{}); n != versionHeaderBytes {
		t.Errorf("Version is %d bytes, want %d", n, versionHeaderBytes)
	}
	if n := unsafe.Sizeof(TransContext{}); n > 80 {
		t.Errorf("TransContext is %d bytes, past the 80-byte size class", n)
	}
}
