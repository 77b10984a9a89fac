package mvcc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hybridgc/internal/ts"
)

// TestGroupListLiveIteration hammers lock-free Ascending/Descending walks
// against a concurrent appender and remover. Along any walk the CIDs must be
// strictly monotonic (next pointers only ever lead to later groups, even
// across removed nodes), and a walk standing on a removed group must keep
// going rather than fall off the list.
func TestGroupListLiveIteration(t *testing.T) {
	gl := NewGroupList()
	const total = 5000
	var stop atomic.Bool
	var wg sync.WaitGroup

	groups := make(chan *GroupCommitContext, total)
	wg.Add(1)
	go func() { // appender: publishes groups in CID order
		defer wg.Done()
		defer close(groups)
		for i := 1; i <= total; i++ {
			g := groupOfOne(uint64(i))
			g.AssignCID(ts.CID(i))
			gl.Append(g)
			groups <- g
		}
	}()
	wg.Add(1)
	go func() { // remover: unlinks them again, oldest first
		defer wg.Done()
		for g := range groups {
			gl.Remove(g)
		}
		stop.Store(true)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var prev ts.CID
				gl.Ascending(func(g *GroupCommitContext) bool {
					if c := g.CID(); c <= prev {
						t.Errorf("ascending walk not monotonic: %d after %d", c, prev)
						return false
					} else {
						prev = c
					}
					return true
				})
				last := ts.CID(total) + 1
				gl.Descending(func(g *GroupCommitContext) bool {
					if c := g.CID(); c >= last {
						t.Errorf("descending walk not monotonic: %d before %d", c, last)
						return false
					}
					last = g.CID()
					return true
				})
			}
		}()
	}
	wg.Wait()
	if n := gl.Len(); n != 0 {
		t.Fatalf("list not empty after all removes: %d", n)
	}
}

// TestGroupListRemoveDuringIteration checks the GT-collector pattern: fn
// removes the group it was handed and the walk continues into the rest of
// the list.
func TestGroupListRemoveDuringIteration(t *testing.T) {
	gl := NewGroupList()
	for i := 1; i <= 10; i++ {
		g := groupOfOne(uint64(i))
		g.AssignCID(ts.CID(i))
		gl.Append(g)
	}
	var seen []ts.CID
	gl.Ascending(func(g *GroupCommitContext) bool {
		seen = append(seen, g.CID())
		gl.Remove(g)
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("walk visited %d of 10 groups: %v", len(seen), seen)
	}
	if gl.Len() != 0 {
		t.Fatalf("list not empty: %d", gl.Len())
	}
	// Removing again is a no-op and the list stays consistent.
	gl.Ascending(func(*GroupCommitContext) bool {
		t.Fatal("empty list must not yield groups")
		return false
	})
}

// TestDrainedGroupUnlinksWhereverItSits: a group leaves the list the moment
// its last version is reclaimed — by whichever primitive, from the middle of
// the list as well as the head — and a group drained before the committer
// appended it is never linked at all.
func TestDrainedGroupUnlinksWhereverItSits(t *testing.T) {
	s := NewSpace(64)
	rec := &fakeRecord{}
	// Record 1: versions at CIDs 1, 2, 3; record 2: one version at CID 4.
	for cid := ts.CID(1); cid <= 3; cid++ {
		addVersion(t, s, rec, OpUpdate, 1, "a", cid)
	}
	addVersion(t, s, &fakeRecord{}, OpUpdate, 2, "b", 4)
	if got := s.Groups.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	// A snapshot at 1 keeps version 1; version 2's interval [2,3) is empty.
	res := s.ReclaimIntervals(s.HT.Get(key(1)), []ts.CID{1}, 4, nil)
	if res.Versions != 1 || res.Groups != 1 {
		t.Fatalf("interval reclamation = %+v, want one version and its group", res)
	}
	var left []ts.CID
	s.Groups.Ascending(func(g *GroupCommitContext) bool {
		if g.Live() != 1 {
			t.Errorf("group %d: Live = %d, want 1", g.CID(), g.Live())
		}
		left = append(left, g.CID())
		return true
	})
	if fmt.Sprint(left) != "[1 3 4]" {
		t.Fatalf("linked groups = %v, want [1 3 4]", left)
	}
	// Timestamp reclamation below 4 takes the rest of record 1: its two
	// groups go, from the head.
	if res := s.ReclaimBelow(s.HT.Get(key(1)), 4); res.Versions != 2 || res.Groups != 2 {
		t.Fatalf("timestamp reclamation = %+v, want two versions and two groups", res)
	}
	if got := s.Groups.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}

	// Drained before Append: the collector got to the version through its
	// chain while the committer was between assigning the CID and linking.
	tc := NewTransContext(9)
	v := NewVersion(OpUpdate, key(2), []byte("c"), tc)
	tc.Add(v)
	if _, err := s.Prepend(&fakeRecord{}, v, nil); err != nil {
		t.Fatal(err)
	}
	g := NewGroup([]*TransContext{tc})
	g.AssignCID(5)
	if res := s.ReclaimBelow(s.HT.Get(key(2)), 6); res.Versions != 2 || res.Groups != 2 {
		t.Fatalf("reclaiming record 2 = %+v, want both versions and both groups", res)
	}
	s.Groups.Append(g)
	if got := s.Groups.Len(); got != 0 {
		t.Fatalf("Len = %d: a group drained before Append must not be linked", got)
	}
}

// TestUnlinkedGroupPointsAtNothing: an unlinked group must not keep its old
// neighbours reachable (they would keep theirs, and so on back through the
// run), and a walk that finds itself on one still visits every group that
// stays linked, in order.
func TestUnlinkedGroupPointsAtNothing(t *testing.T) {
	gl := NewGroupList()
	var gs []*GroupCommitContext
	for i := 1; i <= 8; i++ {
		g := groupOfOne(uint64(i))
		g.AssignCID(ts.CID(i))
		gl.Append(g)
		gs = append(gs, g)
	}
	var seen []ts.CID
	gl.Descending(func(g *GroupCommitContext) bool {
		seen = append(seen, g.CID())
		if g.CID() == 6 {
			// Unlink the group the walk stands on, the one it read ahead
			// and the one behind that.
			gl.Remove(gs[5])
			gl.Remove(gs[4])
			gl.Remove(gs[3])
		}
		return true
	})
	if fmt.Sprint(seen) != "[8 7 6 5 3 2 1]" {
		t.Fatalf("descending walk saw %v, want [8 7 6 5 3 2 1] (5 was read ahead; 4 is skipped)", seen)
	}
	seen = seen[:0]
	gl.Ascending(func(g *GroupCommitContext) bool {
		seen = append(seen, g.CID())
		if g.CID() == 1 {
			gl.Remove(gs[0])
			gl.Remove(gs[1])
			gl.Remove(gs[2])
		}
		return true
	})
	if fmt.Sprint(seen) != "[1 2 7 8]" {
		t.Fatalf("ascending walk saw %v, want [1 2 7 8]", seen)
	}
	for _, g := range gs[:6] {
		if g.prev.Load() != nil || g.next.Load() != nil {
			t.Fatalf("unlinked group %d still points into the list", g.CID())
		}
	}
}
