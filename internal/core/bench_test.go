package core

import (
	"sync/atomic"
	"testing"

	"hybridgc/internal/gc"
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

// BenchmarkWriteParallel is the write path of every TPC-C update with the
// collector running: each goroutine updates a row of its own (disjoint while
// there are at most 1 024 goroutines) and commits, so an operation is a
// statement snapshot, a version link, group commit and propagation, and what
// goroutines share is only the engine's own structures — the counters a
// write and a commit add to among them.
func BenchmarkWriteParallel(b *testing.B) {
	db, err := Open(Config{GC: gc.DefaultPeriods(), AutoGC: true})
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
	var next atomic.Int64
	img := []byte("upd")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rid := rids[(next.Add(1)-1)%rows]
		for pb.Next() {
			tx := db.Begin(txn.StmtSI)
			if err := tx.Update(tid, rid, img); err != nil {
				b.Error(err)
				tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
