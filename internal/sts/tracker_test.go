package sts

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hybridgc/internal/ts"
)

// node is one reference-counted snapshot timestamp value in a tracker's
// ordered list.
type node struct {
	ts         ts.CID
	refs       int
	prev, next *node
}

// Tracker is the paper's ordered list of reference-counted snapshot timestamp
// values (§4.1, Figure 6) — the structure the announcement array replaced. It
// stays here only as the reference model the differential test compares the
// registry's views against.
//
// When a snapshot starts it acquires its timestamp value; equal values share
// one node whose reference count is incremented, so the list stays as short
// as the number of distinct active timestamps. The minimum is read from the
// head without scanning (§4.1, Figure 6).
//
// The zero value is not usable; call NewTracker.
type Tracker struct {
	mu   sync.Mutex
	head *node
	tail *node
	byTS map[ts.CID]*node
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{byTS: make(map[ts.CID]*node)}
}

// Ref is a snapshot's handle on one timestamp value inside one tracker.
// Release must be called exactly once.
type Ref struct {
	tr *Tracker
	n  *node
}

// TS returns the timestamp value this reference pins.
func (r *Ref) TS() ts.CID { return r.n.ts }

// Acquire registers one reference to timestamp c and returns the handle. If c
// is already tracked its reference count is incremented; otherwise a new node
// is inserted in timestamp order.
func (t *Tracker) Acquire(c ts.CID) *Ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.byTS[c]; ok {
		n.refs++
		return &Ref{tr: t, n: n}
	}
	n := &node{ts: c, refs: 1}
	t.byTS[c] = n
	// Insert in order. Acquisitions are near-monotonic (new snapshots get
	// fresh, larger timestamps), so walk from the tail.
	switch {
	case t.tail == nil:
		t.head, t.tail = n, n
	case t.tail.ts < c:
		n.prev = t.tail
		t.tail.next = n
		t.tail = n
	default:
		at := t.tail
		for at.prev != nil && at.prev.ts > c {
			at = at.prev
		}
		// insert before at
		n.next = at
		n.prev = at.prev
		if at.prev != nil {
			at.prev.next = n
		} else {
			t.head = n
		}
		at.prev = n
	}
	return &Ref{tr: t, n: n}
}

// Release drops one reference. When a node's count reaches zero it is removed
// from the list, potentially advancing the tracker minimum.
func (r *Ref) Release() {
	t := r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	n := r.n
	n.refs--
	if n.refs > 0 {
		return
	}
	if n.refs < 0 {
		panic("sts: Ref released twice")
	}
	delete(t.byTS, n.ts)
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
}

// Min returns the smallest tracked timestamp. ok is false when the tracker is
// empty (no active snapshot pins anything).
func (t *Tracker) Min() (c ts.CID, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.head == nil {
		return 0, false
	}
	return t.head.ts, true
}

// Snapshot returns all distinct tracked timestamps in ascending order. This
// is the full scan the interval collector performs as its first step (§4.2
// step 1).
func (t *Tracker) Snapshot() []ts.CID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ts.CID, 0, len(t.byTS))
	for n := t.head; n != nil; n = n.next {
		out = append(out, n.ts)
	}
	return out
}

// Len returns the number of distinct tracked timestamp values.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byTS)
}

func TestTrackerMinHead(t *testing.T) {
	tr := NewTracker()
	if _, ok := tr.Min(); ok {
		t.Fatal("empty tracker must report no minimum")
	}
	r5 := tr.Acquire(5)
	r3 := tr.Acquire(3)
	r9 := tr.Acquire(9)
	if m, ok := tr.Min(); !ok || m != 3 {
		t.Fatalf("Min = %d,%v want 3,true", m, ok)
	}
	r3.Release()
	if m, _ := tr.Min(); m != 5 {
		t.Fatalf("Min after release = %d, want 5", m)
	}
	r5.Release()
	r9.Release()
	if _, ok := tr.Min(); ok {
		t.Fatal("tracker should be empty")
	}
}

func TestTrackerRefCounting(t *testing.T) {
	tr := NewTracker()
	a := tr.Acquire(7)
	b := tr.Acquire(7)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (shared node)", tr.Len())
	}
	a.Release()
	if m, ok := tr.Min(); !ok || m != 7 {
		t.Fatal("node must survive while one ref remains")
	}
	b.Release()
	if tr.Len() != 0 {
		t.Fatal("node must be removed when refs reach zero")
	}
}

func TestTrackerDoubleReleasePanics(t *testing.T) {
	tr := NewTracker()
	r := tr.Acquire(1)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	r.Release()
}

func TestTrackerSnapshotOrdered(t *testing.T) {
	tr := NewTracker()
	vals := []ts.CID{9, 2, 5, 2, 14, 1}
	for _, v := range vals {
		tr.Acquire(v)
	}
	want := []ts.CID{1, 2, 5, 9, 14}
	if got := tr.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
}

func TestTrackerOutOfOrderInsertRelease(t *testing.T) {
	tr := NewTracker()
	r := rand.New(rand.NewSource(11))
	var refs []*Ref
	live := make(map[*Ref]ts.CID)
	for i := 0; i < 2000; i++ {
		if len(refs) == 0 || r.Intn(3) != 0 {
			c := ts.CID(r.Intn(100) + 1)
			ref := tr.Acquire(c)
			refs = append(refs, ref)
			live[ref] = c
		} else {
			k := r.Intn(len(refs))
			ref := refs[k]
			refs = append(refs[:k], refs[k+1:]...)
			ref.Release()
			delete(live, ref)
		}
		// Model check: distinct live values, sorted.
		seen := map[ts.CID]bool{}
		var want []ts.CID
		for _, c := range live {
			if !seen[c] {
				seen[c] = true
				want = append(want, c)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		got := tr.Snapshot()
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Snapshot = %v, want %v", i, got, want)
		}
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				ref := tr.Acquire(ts.CID(r.Intn(64) + 1))
				if m, ok := tr.Min(); !ok || m > ref.TS() {
					t.Errorf("Min %d exceeds live ref %d", m, ref.TS())
					ref.Release()
					return
				}
				ref.Release()
			}
		}(int64(g))
	}
	wg.Wait()
	if tr.Len() != 0 {
		t.Fatalf("tracker not empty after all releases: %d", tr.Len())
	}
}

func TestRegistryScopeMovesSnapshot(t *testing.T) {
	r := NewRegistry()
	h1 := acquire(r, 100) // will become the long-lived, scoped snapshot
	h2 := acquire(r, 200)

	if m, ok := unionMin(r); !ok || m != 100 {
		t.Fatalf("Horizon = %d,%v want 100", m, ok)
	}
	if !h1.ScopeToTables([]ts.TableID{1}) {
		t.Fatal("scoping must succeed")
	}
	// The unscoped view no longer holds 100.
	if m, ok := unscopedMin(r); !ok || m != 200 {
		t.Fatalf("UnscopedHorizon = %d,%v want 200", m, ok)
	}
	// Union still does.
	if m, _ := unionMin(r); m != 100 {
		t.Fatalf("Horizon = %d, want 100", m)
	}
	// Table 1 is constrained at 100, table 2 only by the global tracker.
	if m, _ := tableMin(r, 1); m != 100 {
		t.Fatalf("TableHorizon(1) = %d, want 100", m)
	}
	if m, _ := tableMin(r, 2); m != 200 {
		t.Fatalf("TableHorizon(2) = %d, want 200", m)
	}
	if got := h1.Scoped(); !reflect.DeepEqual(got, []ts.TableID{1}) {
		t.Fatalf("Scoped = %v", got)
	}

	h1.Release()
	if m, _ := tableMin(r, 1); m != 200 {
		t.Fatalf("TableHorizon(1) after release = %d, want 200", m)
	}
	h2.Release()
	if _, ok := unionMin(r); ok {
		t.Fatal("registry should be empty")
	}
}

func TestRegistryFigure8(t *testing.T) {
	// Figure 8 of the paper: long-lived snapshots S1 (ts 2057, scope Table 1)
	// and S2 (ts 2089, scope Table 2); remaining global snapshots from 2100.
	// Records outside tables 1 and 2 use minimum 2100; records in table 1 use
	// 2057 and in table 2 use 2089.
	r := NewRegistry()
	s1 := acquire(r, 2057)
	s2 := acquire(r, 2089)
	g := acquire(r, 2100)
	defer g.Release()

	s1.ScopeToTables([]ts.TableID{1})
	s2.ScopeToTables([]ts.TableID{2})

	if m, _ := tableMin(r, 1); m != 2057 {
		t.Errorf("table 1 min = %d, want 2057", m)
	}
	if m, _ := tableMin(r, 2); m != 2089 {
		t.Errorf("table 2 min = %d, want 2089", m)
	}
	if m, _ := tableMin(r, 3); m != 2100 {
		t.Errorf("table 3 min = %d, want 2100", m)
	}
	if m, _ := unionMin(r); m != 2057 {
		t.Errorf("union min = %d, want 2057", m)
	}
	want := []ts.CID{2057, 2089, 2100}
	if got := view(r).Set(); !reflect.DeepEqual(got, want) {
		t.Errorf("union snapshot = %v, want %v", got, want)
	}
	s1.Release()
	s2.Release()
}

// TestViewSetKeepsScopedSnapshots: S is the union — scoping a snapshot to
// one table takes it out of every other table's horizon, never out of the
// set the interval collector works from.
func TestViewSetKeepsScopedSnapshots(t *testing.T) {
	r := NewRegistry()
	a := acquire(r, 10)
	b := acquire(r, 20)
	c := acquire(r, 30)
	defer b.Release()
	defer c.Release()
	a.ScopeToTables([]ts.TableID{7})

	v := view(r)
	if got, want := v.Set(), []ts.CID{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("Set = %v, want %v", got, want)
	}
	if h7, h8 := v.TableHorizon(7), v.TableHorizon(8); h7 != 10 || h8 != 20 {
		t.Errorf("TableHorizon(7), (8) = %d, %d, want 10, 20", h7, h8)
	}
	if v.Len() != 3 || v.Bound() != testBound {
		t.Errorf("Len, Bound = %d, %d", v.Len(), v.Bound())
	}
	a.Release()
	if got, want := view(r).Set(), []ts.CID{20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("Set after release = %v, want %v", got, want)
	}
	// The view read before the release is unchanged by it.
	if got, want := v.Set(), []ts.CID{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("earlier view's Set = %v, want %v", got, want)
	}
}

func TestScopeEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := acquire(r, 5)
	if h.ScopeToTables(nil) {
		t.Error("scoping to zero tables must be refused")
	}
	if !h.ScopeToTables([]ts.TableID{1, 2}) {
		t.Error("first scope must succeed")
	}
	if h.ScopeToTables([]ts.TableID{3}) {
		t.Error("second scope must be a no-op")
	}
	// Scope to two tables: both constrained.
	if m, _ := tableMin(r, 1); m != 5 {
		t.Error("table 1 must be constrained")
	}
	if m, _ := tableMin(r, 2); m != 5 {
		t.Error("table 2 must be constrained")
	}
	if _, ok := tableMin(r, 3); ok {
		t.Error("table 3 must be unconstrained")
	}
	h.Release()
	if h.ScopeToTables([]ts.TableID{1}) {
		t.Error("scoping a released handle must be refused")
	}
}

func TestPartitionScoping(t *testing.T) {
	r := NewRegistry()
	long := acquire(r, 50)
	cur := acquire(r, 100)
	defer cur.Release()

	if !long.ScopeToPartitions(7, []ts.PartitionID{0, 2}) {
		t.Fatal("partition scoping must succeed")
	}
	if long.ScopeToPartitions(7, []ts.PartitionID{1}) {
		t.Fatal("second scope must be refused")
	}
	// The unscoped view no longer holds 50; the union still does.
	if m, _ := unscopedMin(r); m != 100 {
		t.Fatalf("global min = %d", m)
	}
	if m, _ := unionMin(r); m != 50 {
		t.Fatalf("union min = %d", m)
	}
	// Partition-granular horizons: scoped partitions pinned at 50, the
	// others only by the global tracker.
	if m, _ := partitionMin(r, 7, 0); m != 50 {
		t.Fatalf("PartitionHorizon(7,0) = %d", m)
	}
	if m, _ := partitionMin(r, 7, 2); m != 50 {
		t.Fatalf("PartitionHorizon(7,2) = %d", m)
	}
	if m, _ := partitionMin(r, 7, 1); m != 100 {
		t.Fatalf("PartitionHorizon(7,1) = %d", m)
	}
	// Table-level horizon stays conservative (min over partitions).
	if m, _ := tableMin(r, 7); m != 50 {
		t.Fatalf("TableHorizon(7) = %d", m)
	}
	// Other tables unaffected.
	if m, _ := tableMin(r, 8); m != 100 {
		t.Fatalf("TableHorizon(8) = %d", m)
	}
	// S still holds the partition-scoped snapshot.
	if got := view(r).Set(); fmt.Sprint(got) != "[50 100]" {
		t.Fatalf("Set = %v", got)
	}
	long.Release()
	if m, _ := partitionMin(r, 7, 0); m != 100 {
		t.Fatalf("PartitionHorizon after release = %d", m)
	}
}

// TestTrackerQuickMinInvariant property-checks the tracker against a
// multiset model with testing/quick: after any acquire/release sequence the
// tracker's Min/Snapshot equal the model's.
func TestTrackerQuickMinInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTracker()
		var refs []*Ref
		counts := map[ts.CID]int{}
		for _, op := range ops {
			if op%3 != 0 || len(refs) == 0 {
				c := ts.CID(op%17 + 1)
				refs = append(refs, tr.Acquire(c))
				counts[c]++
			} else {
				i := int(op) % len(refs)
				ref := refs[i]
				refs = append(refs[:i], refs[i+1:]...)
				counts[ref.TS()]--
				if counts[ref.TS()] == 0 {
					delete(counts, ref.TS())
				}
				ref.Release()
			}
			var want []ts.CID
			for c := range counts {
				want = append(want, c)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			got := tr.Snapshot()
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			if len(want) > 0 {
				if m, ok := tr.Min(); !ok || m != want[0] {
					return false
				}
			} else if _, ok := tr.Min(); ok {
				return false
			}
		}
		for _, r := range refs {
			r.Release()
		}
		return tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// modelRegistry is the registry as the paper draws it and as this package
// used to build it: a global tracker for unscoped snapshots (Fig. 6),
// per-table and per-partition trackers created on demand and never removed
// (Fig. 8), and a union tracker holding every snapshot (§4.4). Scoping moves
// a snapshot's references from the global tracker to the scope's trackers.
type modelRegistry struct {
	global, union *Tracker
	perTable      map[ts.TableID]*Tracker
	perPart       map[ts.PartKey]*Tracker
}

type modelHandle struct {
	ts       ts.CID
	refs     []*Ref
	unionRef *Ref
	scoped   bool
	released bool
}

func newModelRegistry() *modelRegistry {
	return &modelRegistry{
		global:   NewTracker(),
		union:    NewTracker(),
		perTable: make(map[ts.TableID]*Tracker),
		perPart:  make(map[ts.PartKey]*Tracker),
	}
}

func (m *modelRegistry) acquire(c ts.CID) *modelHandle {
	return &modelHandle{ts: c, refs: []*Ref{m.global.Acquire(c)}, unionRef: m.union.Acquire(c)}
}

func (h *modelHandle) release() {
	for _, r := range h.refs {
		r.Release()
	}
	h.unionRef.Release()
	h.released = true
}

// rescope replaces the handle's references with ones in the given trackers,
// acquiring the new before releasing the old.
func (h *modelHandle) rescope(trackers []*Tracker) bool {
	if h.released || h.scoped || len(trackers) == 0 {
		return false
	}
	old := h.refs
	h.refs = nil
	for _, tr := range trackers {
		h.refs = append(h.refs, tr.Acquire(h.ts))
	}
	for _, r := range old {
		r.Release()
	}
	h.scoped = true
	return true
}

func (m *modelRegistry) scopeToTables(h *modelHandle, tables []ts.TableID) bool {
	var trs []*Tracker
	for _, tid := range tables {
		if m.perTable[tid] == nil {
			m.perTable[tid] = NewTracker()
		}
		trs = append(trs, m.perTable[tid])
	}
	return h.rescope(trs)
}

func (m *modelRegistry) scopeToPartitions(h *modelHandle, tid ts.TableID, parts []ts.PartitionID) bool {
	var trs []*Tracker
	for _, p := range parts {
		k := ts.PartKey{Table: tid, Partition: p}
		if m.perPart[k] == nil {
			m.perPart[k] = NewTracker()
		}
		trs = append(trs, m.perPart[k])
	}
	return h.rescope(trs)
}

// trackersFor returns the trackers that constrain table tid — the global
// one, the table's own, and either partition p's or (all true) every
// partition's.
func (m *modelRegistry) trackersFor(tid ts.TableID, p ts.PartitionID, all bool) []*Tracker {
	trs := []*Tracker{m.global}
	if tr := m.perTable[tid]; tr != nil {
		trs = append(trs, tr)
	}
	for k, tr := range m.perPart {
		if k.Table == tid && (all || k.Partition == p) {
			trs = append(trs, tr)
		}
	}
	return trs
}

func modelMin(trs ...*Tracker) (best ts.CID, ok bool) {
	for _, tr := range trs {
		if c, has := tr.Min(); has && (!ok || c < best) {
			best, ok = c, true
		}
	}
	return best, ok
}

// TestRegistryMatchesTrackerModel drives the registry and the tracker model
// through the same seeded random sequences of acquire, scope-to-tables,
// scope-to-partitions and release, and requires every answer of a view —
// union minimum, unscoped minimum, every table's and partition's, S, the
// count — to agree after every step. One seed front-loads acquires so the live set
// crosses a segment boundary.
func TestRegistryMatchesTrackerModel(t *testing.T) {
	const (
		tables = 4 // table IDs 1..4; 5 is never named by any scope
		parts  = 3
		steps  = 1200
	)
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	type pair struct {
		h *Handle
		m *modelHandle
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, m := NewRegistry(), newModelRegistry()
		var v View
		var live []pair
		for step := 0; step < steps; step++ {
			acquireBias := 45
			if seed == 1 && step < 800 {
				acquireBias = 75
			}
			switch op := rng.Intn(100); {
			case op < acquireBias || len(live) == 0:
				c := ts.CID(rng.Intn(40)) // narrow domain: shared timestamps, CID 0 included
				live = append(live, pair{acquire(r, c), m.acquire(c)})
			case op < acquireBias+15:
				p := live[rng.Intn(len(live))]
				set := make([]ts.TableID, rng.Intn(3)) // empty sets must be refused by both
				for i := range set {
					set[i] = ts.TableID(rng.Intn(tables) + 1)
				}
				if got, want := p.h.ScopeToTables(set), m.scopeToTables(p.m, set); got != want {
					t.Fatalf("seed %d step %d: ScopeToTables(%v) = %v, model %v", seed, step, set, got, want)
				}
			case op < acquireBias+25:
				p := live[rng.Intn(len(live))]
				tid := ts.TableID(rng.Intn(tables) + 1)
				set := make([]ts.PartitionID, rng.Intn(3))
				for i := range set {
					set[i] = ts.PartitionID(rng.Intn(parts))
				}
				if got, want := p.h.ScopeToPartitions(tid, set), m.scopeToPartitions(p.m, tid, set); got != want {
					t.Fatalf("seed %d step %d: ScopeToPartitions(%d,%v) = %v, model %v", seed, step, tid, set, got, want)
				}
			default:
				i := rng.Intn(len(live))
				live[i].h.Release()
				live[i].m.release()
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}

			at := fmt.Sprintf("seed %d step %d (%d live)", seed, step, len(live))
			// One view, refilled in place, answers everything — as in a
			// collector pass. The model says "no minimum" where a horizon
			// falls back to bound+1.
			sameMin := func(name string, got, want ts.CID, wok bool) {
				t.Helper()
				if !wok {
					want = testBound + 1
				}
				if got != want {
					t.Fatalf("%s: %s = %d, model %d (pinned %v)", at, name, got, want, wok)
				}
			}
			v.Read(r, testBound)
			wm, wok := m.global.Min()
			sameMin("UnscopedHorizon", v.UnscopedHorizon(), wm, wok)
			wm, wok = m.union.Min()
			sameMin("Horizon", v.Horizon(), wm, wok)
			if want := m.union.Snapshot(); len(v.Set()) != len(want) || len(want) > 0 && !reflect.DeepEqual(v.Set(), want) {
				t.Fatalf("%s: Set = %v, model %v", at, v.Set(), want)
			}
			if v.Len() != len(live) {
				t.Fatalf("%s: Len = %d", at, v.Len())
			}
			for tid := ts.TableID(1); tid <= tables+1; tid++ {
				wm, wok = modelMin(m.trackersFor(tid, 0, true)...)
				sameMin(fmt.Sprintf("TableHorizon(%d)", tid), v.TableHorizon(tid), wm, wok)
				for p := ts.PartitionID(0); p < parts; p++ {
					wm, wok = modelMin(m.trackersFor(tid, p, false)...)
					sameMin(fmt.Sprintf("PartitionHorizon(%d,%d)", tid, p), v.PartitionHorizon(tid, p), wm, wok)
				}
			}
		}
		if n := r.segments(); seed == 1 && n < 2 {
			t.Fatalf("seed 1 was meant to cross a segment boundary, array has %d segment", n)
		}
	}
}
