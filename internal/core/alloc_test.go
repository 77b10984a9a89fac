package core

import (
	"testing"

	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// TestStatementReadOneAlloc pins the Stmt-SI read path end to end: catalog
// lookup, statement snapshot, table-space lookup and release cost one
// allocation, the Snapshot. Before, the scope's defensive copy and the
// release closure were two more.
func TestStatementReadOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.CreateTable("T")
	if err != nil {
		t.Fatal(err)
	}
	var rid ts.RID
	if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		rid, err = tx.Insert(tid, []byte("x"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rd := db.Begin(txn.StmtSI)
	defer rd.Abort()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := rd.Get(tid, rid); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Stmt-SI Get allocated %.1f objects/op, want 1", n)
	}
}
