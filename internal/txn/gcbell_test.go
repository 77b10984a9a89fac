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

// TestGCBellRelease pins the snapshot side: the release of the awaited
// minimum rings once and disarms; other timestamps, a minimum that held back
// less than a batch, and a scan nothing held back do not.
func TestGCBellRelease(t *testing.T) {
	m := newTestManager(t, Config{})
	ring := m.ListenGC(4)
	pin := m.AcquireSnapshot(KindCursor, nil)
	commitVersions(t, m, 0, 3) // three live versions behind the pin: under a batch
	m.AwaitRelease(pin.TS(), true)
	if m.bell.awaited.Load() != 0 {
		t.Fatal("armed for less than a batch of held-back versions")
	}
	commitVersions(t, m, 3, 1)
	<-ring // the batch filling; not what is under test
	m.AwaitRelease(pin.TS(), false)
	if m.bell.awaited.Load() != 0 {
		t.Fatal("armed although the scan was not held back")
	}
	m.AwaitRelease(pin.TS(), true)

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
	if m.bell.awaited.Load() != 0 {
		t.Fatal("still armed after ringing")
	}
	again := m.AcquireSnapshot(KindStatement, nil)
	m.bell.awaited.Store(uint64(ts.CID(12345)) + 1)
	again.Release()
	if len(ring) != 0 {
		t.Fatal("rang for a timestamp nobody awaited")
	}
}
