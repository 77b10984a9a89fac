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
	h0 := r.Acquire(0) // CID 0 is valid: the commit counter starts there
	h5 := r.Acquire(5)
	h3 := r.Acquire(3)
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
		r.Acquire(42)
	}
	if got, want := view(r).Set(), []ts.CID{42}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
}

func TestAcquireOutsideDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Infinity+1 wraps onto the empty sentinel and must not be announced")
		}
	}()
	NewRegistry().Acquire(ts.Infinity)
}

// TestRegistryGrowsPastOneSegment fills the first segment and checks that
// the next handle behaves identically — views, scoping, release — from the
// appended one, and that its slot is reused rather than a third segment
// appended.
func TestRegistryGrowsPastOneSegment(t *testing.T) {
	r := NewRegistry()
	handles := make([]*Handle, 0, segSlots)
	for i := 0; i < segSlots; i++ {
		handles = append(handles, r.Acquire(1000))
	}
	if n := r.segments(); n != 1 {
		t.Fatalf("%d segments with one segment's worth of snapshots, want 1", n)
	}
	over := r.Acquire(500)
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
	r.Acquire(700).Release()
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
				handles[i] = r.Acquire(ts.CID(i))
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
	h := r.Acquire(1)
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
		r.AcquireInto(&h, ts.CID(i))
		if m, ok := unscopedMin(r); !ok || m != ts.CID(i) {
			t.Fatalf("UnscopedHorizon = %d,%v want %d", m, ok, i)
		}
		h.Release()
	}
	if _, ok := unscopedMin(r); ok {
		t.Fatal("registry should be empty")
	}
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
		guard := r.Acquire(above) // keeps every view non-empty
		h := r.Acquire(c)
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
				r.AcquireInto(&h, c)
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
