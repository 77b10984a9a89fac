package txn

import (
	"testing"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// TestBarrierAllocFree pins the commit-request pooling: Barrier goes through
// the whole queue machinery (pooled commitReq + done channel, enqueue, lead,
// take, hand leadership on) with no transaction state on top, so at steady
// state the round trip must allocate nothing.
func TestBarrierAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewManager(mvcc.NewSpace(256), sts.NewRegistry(), Config{})
	defer m.Close()
	// Warm the request pool.
	for i := 0; i < 64; i++ {
		if err := m.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := m.Barrier(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Barrier allocated %.1f objects/op at steady state, want 0", n)
	}
}

// TestStatementSnapshotAllocFree pins the Stmt-SI statement path: re-arming
// a transaction's statement snapshot on a table and releasing it allocates
// nothing — the declared scope is the registry's interned record — and a
// standalone single-table snapshot is the Snapshot alone.
func TestStatementSnapshotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewManager(mvcc.NewSpace(256), sts.NewRegistry(), Config{})
	defer m.Close()
	tid := ts.TableID(3)
	tx := m.Begin(StmtSI, nil)
	defer tx.Abort()
	if n := testing.AllocsPerRun(200, func() {
		s := tx.Statement(tid)
		if !s.InScope(tid) || s.InScope(tid+1) {
			t.Fatal("single-table scope lost")
		}
		s.Release()
	}); n != 0 {
		t.Fatalf("re-armed statement snapshot allocated %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.AcquireSnapshot(KindCursor, []ts.TableID{tid}).Release()
	}); n != 1 {
		t.Fatalf("single-table snapshot allocated %.1f objects/op, want 1", n)
	}
}
