package core

import (
	"runtime"
	"testing"

	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// allocTable opens a database with one table holding one row.
func allocTable(t *testing.T) (*DB, ts.TableID, ts.RID) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	return db, tid, insert1(t, db, tid, "x")
}

// TestStatementAllocs pins the Stmt-SI statement path end to end: catalog
// lookup, re-arming the transaction's statement snapshot, table-space lookup
// and release allocate nothing for a warm Get, and an Update of an existing
// row allocates its Version and nothing else.
func TestStatementAllocs(t *testing.T) {
	db, tid, rid := allocTable(t)
	tx := db.Begin(txn.StmtSI)
	defer tx.Abort()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := tx.Get(tid, rid); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Stmt-SI Get allocated %.1f objects/op, want 0", n)
	}
	img := []byte("y")
	if n := testing.AllocsPerRun(200, func() {
		if err := tx.Update(tid, rid, img); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Stmt-SI Update allocated %.1f objects/op, want 1 (the Version)", n)
	}
}

// TestTransSITxnAllocs pins what a Trans-SI Begin → Get → Commit costs the
// heap: the Txn and its snapshot, 2 objects and 192 bytes at most — what it
// cost before statements re-armed a snapshot of their own, so Trans-SI pays
// nothing for that.
func TestTransSITxnAllocs(t *testing.T) {
	db, tid, rid := allocTable(t)
	run := func() {
		tx := db.Begin(txn.TransSI)
		if _, err := tx.Get(tid, rid); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, run); n > 2 {
		t.Fatalf("Trans-SI read-only transaction allocated %.1f objects, want ≤ 2", n)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 192 {
		t.Fatalf("Trans-SI read-only transaction allocated %d B, want ≤ 192", b)
	}
}
