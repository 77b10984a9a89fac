package mvcc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/ts"
)

// finalizers watches versions for the Go collector freeing them: a version
// the engine still reaches is never finalized.
type finalizers struct {
	watched int
	freed   atomic.Int32
}

// watch sets a finalizer on v that counts it freed.
func (f *finalizers) watch(v *Version) {
	f.watched++
	runtime.SetFinalizer(v, func(*Version) { f.freed.Add(1) })
}

// await runs the Go collector until every watched version is finalized, and
// fails t if some never is. A reclaimed version still points at the older
// ones it was reclaimed with, and a finalizer runs only once nothing
// finalizable reaches its object, so a chain of them takes a cycle per link.
func (f *finalizers) await(t testing.TB) {
	t.Helper()
	for i := 0; i < 100 && int(f.freed.Load()) < f.watched; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := int(f.freed.Load()); n != f.watched {
		t.Fatalf("%d of %d reclaimed versions finalized: the rest are still reachable", n, f.watched)
	}
}

// TestReclaimedVersionLeavesItsList reclaims one chain's history with each
// reclaiming primitive while the groups that wrote it stay linked for a live
// version on another chain: the reclaimed versions must become garbage to
// the Go collector, which they cannot while their transactions' lists still
// reach them.
func TestReclaimedVersionLeavesItsList(t *testing.T) {
	always := func(_, _ ts.CID) bool { return true }
	for _, tc := range []struct {
		name    string
		reclaim func(s *Space, c *Chain, old []*Version) int
	}{
		{"ReclaimBelow", func(s *Space, c *Chain, _ []*Version) int {
			return s.ReclaimBelow(c, 100).Versions
		}},
		{"ReclaimIntervals", func(s *Space, c *Chain, _ []*Version) int {
			return s.ReclaimIntervals(c, nil, 100, nil).Versions
		}},
		{"ReclaimVersionIf", func(s *Space, _ *Chain, old []*Version) int {
			n := 0
			for _, v := range old {
				n += s.ReclaimVersionIf(v, always).Versions
			}
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f finalizers
			s, groups := reclaimHistory(t, &f, tc.reclaim)
			f.await(t)
			if n := s.Groups.Len(); n != len(groups)+1 {
				t.Fatalf("%d groups linked, want the %d that hold a live version", n, len(groups)+1)
			}
			for i, g := range groups {
				if g.Live() != 1 {
					t.Fatalf("group %d: %d live versions, want 1", i, g.Live())
				}
				g.Each(func(v *Version) {
					if v.Reclaimed() || v.Key != key(uint64(10+i)) {
						t.Fatalf("group %d: Each visited %v, want only its live version", i, v)
					}
				})
			}
		})
	}
}

// reclaimHistory commits three groups that each update record 1 and a record
// of their own, then a fourth that updates record 1 alone, and has reclaim
// collect record 1's three older versions, which f watches. The caller gets
// the first three groups and nothing that reaches a reclaimed version.
func reclaimHistory(t *testing.T, f *finalizers, reclaim func(*Space, *Chain, []*Version) int) (*Space, []*GroupCommitContext) {
	t.Helper()
	s := NewSpace(0)
	rec := &fakeRecord{exists: true}
	var groups []*GroupCommitContext
	var old []*Version
	for i := 0; i < 3; i++ {
		tc := NewTransContext(uint64(i))
		for _, k := range []ts.RecordKey{key(1), key(uint64(10 + i))} {
			v := NewVersion(OpUpdate, k, []byte("img"), tc)
			tc.Add(v)
			r := RecordRef(&fakeRecord{exists: true})
			if k == key(1) {
				r = rec
				old = append(old, v)
				f.watch(v)
			}
			if _, err := s.Prepend(r, v, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush(tc)
		g := NewGroup([]*TransContext{tc})
		g.AssignCID(ts.CID(10 * (i + 1)))
		s.Groups.Append(g)
		groups = append(groups, g)
	}
	addVersion(t, s, rec, OpUpdate, 1, "new", 100)
	if n := reclaim(s, s.HT.Get(key(1)), old); n != len(old) {
		t.Fatalf("reclaimed %d versions, want %d", n, len(old))
	}
	return s, groups
}
