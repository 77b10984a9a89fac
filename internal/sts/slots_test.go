package sts

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hybridgc/internal/ts"
)

// testBound is the bound the tests read their views under: the largest
// announceable timestamp, so testBound+1 (ts.Infinity) is never a snapshot's.
const testBound = ts.Infinity - 1

// view reads a fresh view of r: what Manager.View does, minus the seqlock.
func view(r *Registry) *View {
	v := new(View)
	v.Read(r, testBound)
	return v
}

// pinned turns a view's horizon back into (minimum, whether anything sets
// it), which is how the tracker model answers.
func pinned(h ts.CID) (ts.CID, bool) {
	if h == testBound+1 {
		return 0, false
	}
	return h, true
}

func unionMin(r *Registry) (ts.CID, bool)    { return pinned(view(r).Horizon()) }
func unscopedMin(r *Registry) (ts.CID, bool) { return pinned(view(r).UnscopedHorizon()) }
func tableMin(r *Registry, tid ts.TableID) (ts.CID, bool) {
	return pinned(view(r).TableHorizon(tid))
}
func partitionMin(r *Registry, tid ts.TableID, p ts.PartitionID) (ts.CID, bool) {
	return pinned(view(r).PartitionHorizon(tid, p))
}

// ScopeToTables narrows a handle acquired with no declared scope straight to
// tables: the model tests' form of the table collector's step 2. It is
// refused for no tables, a released handle, or one already scoped.
func (h *Handle) ScopeToTables(tables []ts.TableID) bool {
	return h.scopeTo(NewScope(tables, nil))
}

// ScopeToPartitions is ScopeToTables at partition grain.
func (h *Handle) ScopeToPartitions(table ts.TableID, parts []ts.PartitionID) bool {
	if len(parts) == 0 {
		return false
	}
	return h.scopeTo(NewScope([]ts.TableID{table}, parts))
}

func (h *Handle) scopeTo(sc *Scope) bool {
	return sc != nil && h.Held() && h.scope.CompareAndSwap(nil, sc.narrowed)
}

// acquire pins timestamp c, scope unknown, into a fresh handle.
func acquire(r *Registry, c ts.CID) *Handle {
	h := new(Handle)
	r.AcquireInto(h, c, nil)
	return h
}

// segments counts the segments of the announcement array.
func (r *Registry) segments() int {
	n := 0
	for seg := &r.head; seg != nil; seg = seg.next.Load() {
		n++
	}
	return n
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	if _, ok := unionMin(r); ok {
		t.Fatal("empty registry must report no minimum")
	}
	h0 := acquire(r, 0) // CID 0 is valid: the commit counter starts there
	h5 := acquire(r, 5)
	h3 := acquire(r, 3)
	if m, ok := unscopedMin(r); !ok || m != 0 {
		t.Fatalf("min = %d,%v want 0,true", m, ok)
	}
	if got, want := view(r).Set(), []ts.CID{0, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
	h0.Release()
	if m, _ := unscopedMin(r); m != 3 {
		t.Fatalf("min after release = %d, want 3", m)
	}
	h3.Release()
	h5.Release()
	if _, ok := unionMin(r); ok {
		t.Fatal("registry should be empty")
	}
}

func TestSnapshotDedups(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 10; i++ {
		acquire(r, 42)
	}
	if got, want := view(r).Set(), []ts.CID{42}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
}

func TestAcquireOutsideDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ts.Infinity ends the timestamp domain and must not be announced")
		}
	}()
	acquire(NewRegistry(), ts.Infinity)
}

// TestRegistryGrowsPastOneSegment fills the first segment and checks that
// the next handle behaves identically — views, scoping, release — from the
// appended one, and that its slot is reused rather than a third segment
// appended.
func TestRegistryGrowsPastOneSegment(t *testing.T) {
	r := NewRegistry()
	handles := make([]*Handle, 0, segSlots)
	for i := 0; i < segSlots; i++ {
		handles = append(handles, acquire(r, 1000))
	}
	if n := r.segments(); n != 1 {
		t.Fatalf("%d segments with one segment's worth of snapshots, want 1", n)
	}
	over := acquire(r, 500)
	if n := r.segments(); n != 2 {
		t.Fatalf("%d segments after exhausting the first, want 2", n)
	}
	if m, _ := unscopedMin(r); m != 500 {
		t.Fatalf("UnscopedHorizon = %d, want 500", m)
	}
	if m, _ := unionMin(r); m != 500 {
		t.Fatalf("Horizon = %d, want 500", m)
	}
	if got, want := view(r).Set(), []ts.CID{500, 1000}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Set = %v, want %v", got, want)
	}
	if !over.ScopeToTables([]ts.TableID{3}) {
		t.Fatal("scoping a handle of the second segment must succeed")
	}
	if m, _ := unscopedMin(r); m != 1000 {
		t.Fatalf("UnscopedHorizon after scope = %d, want 1000", m)
	}
	if m, _ := tableMin(r, 3); m != 500 {
		t.Fatalf("TableHorizon(3) = %d, want 500", m)
	}
	over.Release()
	acquire(r, 700).Release()
	if n := r.segments(); n != 2 {
		t.Fatalf("%d segments after reusing a freed slot, want 2", n)
	}
	for _, h := range handles {
		h.Release()
	}
	if _, ok := unionMin(r); ok {
		t.Fatal("registry should be empty")
	}
}

// TestRegistryGrowthConcurrent holds 1000 snapshots at distinct timestamps
// at once — four segments' worth, appended under contention — and checks
// that none is lost, that the views are exact, and that the segments are
// reused once the snapshots are gone.
func TestRegistryGrowthConcurrent(t *testing.T) {
	const n = 1000
	r := NewRegistry()
	handles := make([]*Handle, n)
	hold := func() {
		var wg sync.WaitGroup
		for i := range handles {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				handles[i] = acquire(r, ts.CID(i))
			}(i)
		}
		wg.Wait()
	}
	hold()
	got := view(r).Set()
	if len(got) != n {
		t.Fatalf("Set holds %d timestamps, want %d", len(got), n)
	}
	for i, c := range got {
		if c != ts.CID(i) {
			t.Fatalf("Set[%d] = %d", i, c)
		}
	}
	if m, ok := unionMin(r); !ok || m != 0 {
		t.Fatalf("Horizon = %d,%v want 0,true", m, ok)
	}
	want := (n + segSlots - 1) / segSlots
	if segs := r.segments(); segs != want {
		t.Fatalf("%d segments for %d concurrent snapshots, want %d", segs, n, want)
	}
	for _, h := range handles {
		h.Release()
	}
	if got := view(r).Set(); len(got) != 0 {
		t.Fatalf("Set after release = %v", got)
	}
	if _, ok := unscopedMin(r); ok {
		t.Fatal("registry should be empty")
	}
	hold()
	if segs := r.segments(); segs != want {
		t.Fatalf("%d segments after a second round, want %d (no new segment)", segs, want)
	}
	for _, h := range handles {
		h.Release()
	}
}

func TestHandleDoubleReleasePanics(t *testing.T) {
	r := NewRegistry()
	h := acquire(r, 1)
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	h.Release()
}

func TestAcquireIntoReuse(t *testing.T) {
	r := NewRegistry()
	var h Handle
	for i := 0; i < 3*segSlots; i++ {
		r.AcquireInto(&h, ts.CID(i), nil)
		if m, ok := unscopedMin(r); !ok || m != ts.CID(i) {
			t.Fatalf("UnscopedHorizon = %d,%v want %d", m, ok, i)
		}
		h.Release()
	}
	if _, ok := unscopedMin(r); ok {
		t.Fatal("registry should be empty")
	}
}

// TestDeclaredScopeNarrowsPerAcquisition walks one handle through the life
// of a transaction's statement snapshot: the interned declared scope
// constrains every table until Narrow swaps in its twin, narrowing is once
// per acquisition, a re-acquisition on the same table keeps the narrowing
// (it states the new scope exactly), one on another table starts unnarrowed
// again, and a narrowing computed for an earlier acquisition cannot land on
// it.
func TestDeclaredScopeNarrowsPerAcquisition(t *testing.T) {
	const A, B = ts.TableID(1), ts.TableID(2)
	r := NewRegistry()
	if r.TableScope(A) != r.TableScope(A) || r.TableScope(A) == r.TableScope(B) {
		t.Fatal("single-table scopes must be interned per table")
	}
	if big := ts.TableID(maxInterned); r.TableScope(big) == r.TableScope(big) {
		t.Fatal("IDs past the interning bound get a record per call")
	}
	guard := acquire(r, 20)
	defer guard.Release()
	var h Handle
	r.AcquireInto(&h, 10, r.TableScope(A))
	if h.Scoped() != nil || !reflect.DeepEqual(h.Tables(), []ts.TableID{A}) {
		t.Fatalf("declared: Scoped %v, Tables %v", h.Scoped(), h.Tables())
	}
	if m, _ := tableMin(r, B); m != 10 {
		t.Fatalf("a declared scope constrains every table: TableHorizon(B) = %d, want 10", m)
	}
	stale := h.scope.Load()
	if !h.Narrow() || h.Narrow() {
		t.Fatal("Narrow must succeed exactly once per acquisition")
	}
	if m, _ := tableMin(r, B); m != 20 {
		t.Fatalf("narrowed to A: TableHorizon(B) = %d, want 20", m)
	}
	h.Release()
	if h.Held() || h.Narrow() || h.Retract() {
		t.Fatal("a released handle must be neither held, narrowed nor retracted")
	}
	r.AcquireInto(&h, 12, r.TableScope(A))
	if m, _ := tableMin(r, B); m != 20 || !h.Held() || !reflect.DeepEqual(h.Scoped(), []ts.TableID{A}) {
		t.Fatalf("re-acquired on A: TableHorizon(B) = %d, Scoped %v", m, h.Scoped())
	}
	h.Release()
	r.AcquireInto(&h, 15, r.TableScope(B))
	if h.scope.CompareAndSwap(stale, stale.narrowed) {
		t.Fatal("a narrowing read under A's acquisition landed on B's")
	}
	if m, _ := tableMin(r, B); m != 15 || h.Scoped() != nil {
		t.Fatalf("re-acquired on B: TableHorizon(B) = %d, Scoped %v", m, h.Scoped())
	}
	h.Release()
}

// TestScopedSnapshotNeverUnpinned races the table collector's scoping (twice,
// as two collectors would) and the owner's release of one snapshot against
// collector-side readers. The snapshot sits at timestamp c and may read only
// table T: no view taken while it is held omits c from T's horizon (or from
// the union's); table U's horizon may rise above c only once the scope is
// set, and then the unscoped horizon rises with it — a view reads the scope
// once, so the two always agree; and nothing stays pinned after.
func TestScopedSnapshotNeverUnpinned(t *testing.T) {
	const (
		c     = ts.CID(5)
		above = ts.CID(9)
		T, U  = ts.TableID(1), ts.TableID(2)
	)
	iterations := 1000
	if testing.Short() {
		iterations = 200
	}
	r := NewRegistry()
	for i := 0; i < iterations; i++ {
		guard := acquire(r, above) // keeps every view non-empty
		h := acquire(r, c)
		var (
			scoping, scoped, releasing, released atomic.Bool
			wins                                 atomic.Int32
			actors, readers                      sync.WaitGroup
		)
		for g := 0; g < 2; g++ {
			actors.Add(1)
			go func() {
				defer actors.Done()
				scoping.Store(true)
				if h.ScopeToTables([]ts.TableID{T}) {
					wins.Add(1)
					scoped.Store(true)
				}
			}()
		}
		actors.Add(1)
		go func() {
			defer actors.Done()
			for y := i % 4; y > 0; y-- {
				runtime.Gosched()
			}
			releasing.Store(true)
			h.Release()
			released.Store(true)
		}()
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !released.Load() {
					wasScoped := scoped.Load()
					v := view(r)
					if releasing.Load() {
						return
					}
					// The snapshot was held across the whole scan.
					gm, tm, um := v.UnscopedHorizon(), v.TableHorizon(T), v.TableHorizon(U)
					if tm != c || v.Horizon() != c {
						t.Errorf("iteration %d: unpinned while held: horizon %d, TableHorizon(T) %d, snapshot at %d", i, v.Horizon(), tm, c)
					}
					if (gm > c) != (um > c) {
						t.Errorf("iteration %d: one view has the snapshot both scoped and not: UnscopedHorizon %d, TableHorizon(U) %d", i, gm, um)
					}
					if um > c && !scoping.Load() {
						t.Errorf("iteration %d: TableHorizon(U) = %d above %d before any scoping began", i, um, c)
					}
					if um <= c && wasScoped {
						t.Errorf("iteration %d: TableHorizon(U) = %d still pinned after scoping to T", i, um)
					}
				}
			}()
		}
		actors.Wait()
		readers.Wait()
		if wins.Load() > 1 {
			t.Fatalf("iteration %d: scope set %d times", i, wins.Load())
		}
		guard.Release()
		if m, ok := unionMin(r); ok {
			t.Fatalf("iteration %d: leaked pin at %d", i, m)
		}
	}
}

// TestRegistryConcurrentAcquireRelease checks the merged min never exceeds a
// timestamp the goroutine itself still pins.
func TestRegistryConcurrentAcquireRelease(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var h Handle
			for i := 0; i < 2000; i++ {
				c := ts.CID(rng.Intn(64) + 1)
				r.AcquireInto(&h, c, nil)
				if m, ok := unscopedMin(r); !ok || m > c {
					t.Errorf("UnscopedHorizon %d,%v exceeds live pin %d", m, ok, c)
					h.Release()
					return
				}
				if m, ok := unionMin(r); !ok || m > c {
					t.Errorf("Horizon %d,%v exceeds live pin %d", m, ok, c)
					h.Release()
					return
				}
				h.Release()
			}
		}(int64(g))
	}
	wg.Wait()
	if _, ok := unionMin(r); ok {
		t.Fatal("registry should be empty")
	}
}
