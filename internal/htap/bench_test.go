package htap

import (
	"testing"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// BenchmarkOLAPScan measures the aggregate executor across lane states: the
// fully-migrated column path versus the pure row path over identical data,
// plus a delta-heavy lane (half the table un-migrated) in between. The
// column/chunked-to-row ratio is the headline speedup ISSUE acceptance asks
// for (>=5x on settled data).
func BenchmarkOLAPScan(b *testing.B) {
	const rows = 20000
	setup := func(b *testing.B, migrate int) (*Store, ts.TableID) {
		b.Helper()
		db, err := core.Open(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(db.Close)
		tid, err := db.CreateTable("FACTS")
		if err != nil {
			b.Fatal(err)
		}
		st := NewStore(db, Config{ChunkSlots: 4096})
		if err := st.EnableTable(tid, laneSchema); err != nil {
			b.Fatal(err)
		}
		regions := []string{"emea", "apj", "amer", "latam"}
		insert := func(lo, hi int) {
			for base := lo; base < hi; base += 512 {
				n := hi - base
				if n > 512 {
					n = 512
				}
				if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
					for i := 0; i < n; i++ {
						img, _ := colstore.EncodeRow(laneSchema, colstore.Row{
							colstore.IntV(int64(base + i)), colstore.StrV(regions[(base+i)%4]),
						})
						if _, err := tx.Insert(tid, img); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		insert(0, migrate)
		if migrate > 0 {
			db.GC().Collect()
			st.Migrate()
		}
		insert(migrate, rows)
		return st, tid
	}

	run := func(b *testing.B, st *Store, tid ts.TableID, spec AggSpec) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := st.Aggregate(tid, spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Groups[0].Count == 0 {
				b.Fatal("empty aggregate")
			}
		}
		b.SetBytes(rows * 8)
	}

	for _, bc := range []struct {
		name    string
		migrate int
	}{
		{"column/chunked", rows}, // fully settled and migrated: pure vectors
		{"column/delta-heavy", rows / 2},
		{"row", 0}, // lane enabled, nothing migrated: pure MVCC row reads
	} {
		b.Run("sum/"+bc.name, func(b *testing.B) {
			st, tid := setup(b, bc.migrate)
			run(b, st, tid, AggSpec{Op: AggSum, Col: "amount"})
		})
	}
	b.Run("groupby/column/chunked", func(b *testing.B) {
		st, tid := setup(b, rows)
		run(b, st, tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	})
	b.Run("groupby/row", func(b *testing.B) {
		st, tid := setup(b, 0)
		run(b, st, tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	})
}
