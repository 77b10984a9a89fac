package core

import (
	"testing"

	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// BenchmarkStatementGetParallel is the Stmt-SI read path every TPC-C
// statement takes: each goroutine holds one warm Stmt-SI transaction and
// issues Gets on a table of 1 024 rows, so an operation is catalog lookup,
// re-arming the statement snapshot, the version lookup and the release.
func BenchmarkStatementGetParallel(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tid, err := db.CreateTable("T")
	if err != nil {
		b.Fatal(err)
	}
	const rows = 1 << 10
	rids := make([]ts.RID, rows)
	if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		for i := range rids {
			if rids[i], err = tx.Insert(tid, []byte("row")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tx := db.Begin(txn.StmtSI)
		defer tx.Abort()
		for i := 0; pb.Next(); i++ {
			if _, err := tx.Get(tid, rids[i%rows]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
