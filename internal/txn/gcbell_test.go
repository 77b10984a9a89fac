package txn

import (
	"testing"

	"hybridgc/internal/ts"
)

// commitVersions commits n single-version transactions on distinct records.
func commitVersions(t *testing.T, m *Manager, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		tx := m.Begin(StmtSI, nil)
		if err := write(t, m, tx, &nopRecord{}, uint64(i), "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGCBellBatch pins the commit leader's side of the bell: off until a loop
// listens, one ring as the count crosses the batch, not one per commit past
// it, and rings that find one pending coalesce with it.
func TestGCBellBatch(t *testing.T) {
	m := newTestManager(t, Config{})
	commitVersions(t, m, 0, 10)
	if len(m.bell.ring) != 0 || m.bell.fresh.Load() != 0 {
		t.Fatal("the bell counted or rang with nobody listening")
	}
	ring := m.ListenGC(4)
	commitVersions(t, m, 10, 3)
	if len(ring) != 0 {
		t.Fatal("rang below the batch")
	}
	commitVersions(t, m, 13, 1)
	if len(ring) != 1 {
		t.Fatal("did not ring as the batch filled")
	}
	<-ring
	commitVersions(t, m, 14, 10)
	if len(ring) != 0 {
		t.Fatal("rang again past the batch without a pass in between")
	}
	// Two batches fill while the loop is busy with one pass: one ring waits.
	m.BeginGCPass()
	commitVersions(t, m, 24, 4)
	m.BeginGCPass()
	commitVersions(t, m, 28, 4)
	if len(ring) != 1 {
		t.Fatalf("%d rings pending, want the two to have coalesced into 1", len(ring))
	}
	<-ring
	m.ListenGC(0)
	commitVersions(t, m, 32, 8)
	if len(ring) != 0 {
		t.Fatal("rang after the loop stopped listening")
	}
}

// TestGCBellRelease pins the snapshot side: the release of the minimum the
// last horizon scan stopped at disarms, and rings once when at least a batch
// of versions is live; other timestamps and a scan nothing held back do not.
func TestGCBellRelease(t *testing.T) {
	m := newTestManager(t, Config{})
	ring := m.ListenGC(4)
	pin := m.AcquireSnapshot(KindCursor, nil)
	commitVersions(t, m, 0, 3) // three live versions behind the pin: under a batch
	m.AwaitRelease(m.View(), true)
	pin.Release()
	if len(ring) != 0 {
		t.Fatal("rang for less than a batch of live versions")
	}
	if m.bell.stalled.Load() != 0 {
		t.Fatal("still armed after the release")
	}
	pin = m.AcquireSnapshot(KindCursor, nil)
	commitVersions(t, m, 3, 1)
	<-ring // the batch filling; not what is under test
	m.AwaitRelease(m.View(), false)
	if m.bell.stalled.Load() != 0 {
		t.Fatal("armed although the scan was not held back")
	}
	m.AwaitRelease(m.View(), true)

	other := m.AcquireSnapshot(KindStatement, nil) // a later timestamp
	if other.TS() == pin.TS() {
		t.Fatal("test needs two distinct timestamps")
	}
	other.Release()
	if len(ring) != 0 {
		t.Fatal("the release of a snapshot that is not the minimum rang")
	}
	pin.Release()
	if len(ring) != 1 {
		t.Fatal("the release of the awaited minimum did not ring")
	}
	<-ring
	if m.bell.stalled.Load() != 0 {
		t.Fatal("still armed after ringing")
	}
	again := m.AcquireSnapshot(KindStatement, nil)
	m.bell.stalled.Store(uint64(ts.CID(12345)) + 1)
	again.Release()
	if len(ring) != 0 {
		t.Fatal("rang for a timestamp nobody awaited")
	}
}

// TestCollectOnCommit pins the committer's side: nothing runs until a loop
// listens; then the step runs once gtEvery versions have been published
// since the last group collection began, not while the snapshot that
// stopped that collection is held, and never once it is removed.
func TestCollectOnCommit(t *testing.T) {
	m := newTestManager(t, Config{})
	runs := 0
	m.CollectOnCommit(func() { runs++; m.BeginGT() })
	commitVersions(t, m, 0, 2*gtEvery)
	if runs != 0 {
		t.Fatalf("the step ran %d times with nobody listening", runs)
	}
	m.ListenGC(1 << 40)
	commitVersions(t, m, 0, gtEvery-1)
	if runs != 0 {
		t.Fatal("ran below gtEvery versions")
	}
	commitVersions(t, m, gtEvery, 1)
	if runs != 1 {
		t.Fatalf("ran %d times as gtEvery versions filled, want 1", runs)
	}

	pin := m.AcquireSnapshot(KindCursor, nil)
	m.AwaitRelease(m.View(), true)
	commitVersions(t, m, 0, 4*gtEvery)
	if runs != 1 {
		t.Fatal("ran while the snapshot that stopped the last collection was held")
	}
	pin.Release()
	commitVersions(t, m, 0, 1)
	if runs != 2 {
		t.Fatal("did not run once that snapshot was released")
	}

	// A collection stopped by a snapshot released before it could report
	// does not close the gate.
	gone := m.AcquireSnapshot(KindCursor, nil)
	v := m.View()
	gone.Release()
	m.AwaitRelease(v, true)
	commitVersions(t, m, 0, gtEvery)
	if runs != 3 {
		t.Fatal("the release that came before the report left the gate closed")
	}

	m.CollectOnCommit(nil)
	commitVersions(t, m, 0, 2*gtEvery)
	if runs != 3 {
		t.Fatal("ran after the step was removed")
	}
}
