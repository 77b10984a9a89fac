// Ablation benchmarks for the design choices DESIGN.md calls out, and engine
// micro-benchmarks. The paper's figures are run by `cmd/hybridgc-bench -fig`
// and shape-checked by internal/bench's tests.
package hybridgc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/colstore"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/txn"
)

// gcWorkloadDB builds a database with a pinned snapshot and a pile of
// versions, for collector ablations.
func gcWorkloadDB(b *testing.B, records, versionsPer int) (*DB, func()) {
	b.Helper()
	db := MustOpen(Config{})
	tid, err := db.CreateTable("T")
	if err != nil {
		b.Fatal(err)
	}
	var rids []RID
	for i := 0; i < records; i++ {
		err := db.Exec(StmtSI, nil, func(tx *Tx) error {
			rid, err := tx.Insert(tid, []byte("v0"))
			rids = append(rids, rid)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	pin := db.Manager().AcquireSnapshot(txn.KindCursor, []TableID{tid})
	for v := 0; v < versionsPer; v++ {
		for _, rid := range rids {
			err := db.Exec(StmtSI, nil, func(tx *Tx) error {
				return tx.Update(tid, rid, []byte(fmt.Sprintf("v%d", v+1)))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	cleanup := func() {
		pin.Release()
		db.Close()
	}
	return db, cleanup
}

// BenchmarkAblationGroupVsSingleTimestamp compares GT's group-list
// identification against ST's full hash-table scan when there is nothing to
// reclaim (a pinned snapshot blocks everything) — the identification-cost
// argument for group granularity in §4.1.
func BenchmarkAblationGroupVsSingleTimestamp(b *testing.B) {
	for _, kind := range []string{"GT", "ST"} {
		b.Run(kind, func(b *testing.B) {
			db, cleanup := gcWorkloadDB(b, 512, 8)
			defer cleanup()
			var c Collector
			if kind == "GT" {
				c = gc.NewGroupTimestamp(db.Manager())
			} else {
				c = gc.NewSingleTimestamp(db.Manager())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Collect()
			}
		})
	}
}

// BenchmarkAblationIntervalVsGroupInterval compares SI's per-chain merge
// pass against GI's subgroup-batched decisions on identical version
// populations (§3.2's immediate-successor subgroups, the paper's future
// work).
func BenchmarkAblationIntervalVsGroupInterval(b *testing.B) {
	for _, kind := range []string{"SI", "GI"} {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, cleanup := gcWorkloadDB(b, 256, 8)
				var c Collector
				if kind == "SI" {
					c = gc.NewInterval(db.Manager())
				} else {
					c = gc.NewGroupInterval(db.Manager())
				}
				// A second snapshot at "now" creates the interval window.
				cur := db.Manager().AcquireSnapshot(txn.KindStatement, nil)
				b.StartTimer()
				c.Collect()
				b.StopTimer()
				cur.Release()
				cleanup()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkEngineUpdate measures raw single-record update throughput with GC
// disabled (the write path cost floor).
func BenchmarkEngineUpdate(b *testing.B) {
	db := MustOpen(Config{})
	defer db.Close()
	tid, _ := db.CreateTable("T")
	var rid RID
	if err := db.Exec(StmtSI, nil, func(tx *Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte("v"))
		return err
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Exec(StmtSI, nil, func(tx *Tx) error {
			return tx.Update(tid, rid, []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGet measures the read path: statement snapshot, chain
// traversal, decode-free image return.
func BenchmarkEngineGet(b *testing.B) {
	db := MustOpen(Config{})
	defer db.Close()
	tid, _ := db.CreateTable("T")
	var rid RID
	db.Exec(StmtSI, nil, func(tx *Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte("v"))
		return err
	})
	tx := db.Begin(StmtSI)
	defer tx.Abort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Get(tid, rid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCursorFetch measures incremental FETCH over a chain-heavy table,
// with and without garbage collection — the mechanism behind Figures 14/15.
func BenchmarkCursorFetch(b *testing.B) {
	for _, collected := range []bool{false, true} {
		name := "uncollected"
		if collected {
			name = "collected"
		}
		b.Run(name, func(b *testing.B) {
			db := MustOpen(Config{})
			defer db.Close()
			tid, _ := db.CreateTable("T")
			var rids []RID
			for i := 0; i < 256; i++ {
				db.Exec(StmtSI, nil, func(tx *Tx) error {
					rid, err := tx.Insert(tid, []byte("v"))
					rids = append(rids, rid)
					return err
				})
			}
			cur, err := db.OpenCursor(tid)
			if err != nil {
				b.Fatal(err)
			}
			defer cur.Close()
			for round := 0; round < 16; round++ {
				for _, rid := range rids {
					db.Exec(StmtSI, nil, func(tx *Tx) error {
						return tx.Update(tid, rid, []byte("w"))
					})
				}
			}
			if collected {
				db.GC().Collect() // SI trims the chains behind the cursor
			}
			b.ReportAllocs()
			b.ResetTimer()
			var traversed int64
			for i := 0; i < b.N; i++ {
				fresh, err := db.OpenCursor(tid)
				if err != nil {
					b.Fatal(err)
				}
				for !fresh.Exhausted() {
					_, st, err := fresh.Fetch(64)
					if err != nil {
						b.Fatal(err)
					}
					traversed += st.Traversed
				}
				fresh.Close()
			}
			b.ReportMetric(float64(traversed)/float64(b.N), "versions-traversed/scan")
		})
	}
}

// BenchmarkAblationColumnVsRowAggregate compares a SUM aggregate served by
// the HTAP lane from migrated column chunks against the same aggregate
// decoding row-store payloads — the §2.1 reason HANA pairs a column store
// with the row store for OLAP. The column leg is htap.Store.Aggregate, the
// call a SQL or wire client's aggregate reaches.
func BenchmarkAblationColumnVsRowAggregate(b *testing.B) {
	const rows = 4096
	b.Run("column", func(b *testing.B) {
		db := MustOpen(Config{})
		defer db.Close()
		tid, _ := db.CreateTable("FACTS")
		schema := colstore.Schema{{Name: "amount", Type: colstore.Int64}}
		lane := htap.NewStore(db, htap.Config{ChunkSlots: rows})
		if err := lane.EnableTable(tid, schema); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			img, _ := colstore.EncodeRow(schema, colstore.Row{colstore.IntV(int64(i))})
			if err := db.Exec(StmtSI, nil, func(tx *Tx) error {
				_, err := tx.Insert(tid, img)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
		db.GC().Collect() // settle the images,
		lane.Migrate()    // then ship them into chunks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := lane.Aggregate(tid, htap.AggSpec{Op: htap.AggSum, Col: "amount"})
			if err != nil {
				b.Fatal(err)
			}
			if res.ChunkRows != rows {
				b.Fatalf("%d of %d rows served from chunks", res.ChunkRows, rows)
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		db := MustOpen(Config{})
		defer db.Close()
		tid, _ := db.CreateTable("FACTS")
		for i := 0; i < rows; i++ {
			img := make([]byte, 8)
			for j := 0; j < 8; j++ {
				img[j] = byte(i >> (8 * j))
			}
			if err := db.Exec(StmtSI, nil, func(tx *Tx) error {
				_, err := tx.Insert(tid, img)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
		db.GC().Collect()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var sum int64
			err := db.Exec(TransSI, nil, func(tx *Tx) error {
				return tx.Scan(tid, func(_ RID, img []byte) bool {
					var v int64
					for j := 0; j < 8; j++ {
						v |= int64(img[j]) << (8 * j)
					}
					sum += v
					return true
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationChainTraversalDepth quantifies §2.2's latest-first
// ordering argument: reads of recent versions cost O(1) traversal while a
// snapshot k versions behind pays k pointer chases — exactly the cost curve
// Figure 15 observes from the cursor side.
func BenchmarkAblationChainTraversalDepth(b *testing.B) {
	for _, depth := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			db := MustOpen(Config{})
			defer db.Close()
			tid, _ := db.CreateTable("T")
			var rid RID
			db.Exec(StmtSI, nil, func(tx *Tx) error {
				var err error
				rid, err = tx.Insert(tid, []byte("v"))
				return err
			})
			// Pin a snapshot, then bury it under `depth` newer versions.
			pin := db.Manager().AcquireSnapshot(txn.KindCursor, []TableID{tid})
			defer pin.Release()
			for i := 0; i < depth; i++ {
				db.Exec(StmtSI, nil, func(tx *Tx) error {
					return tx.Update(tid, rid, []byte("w"))
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := db.ReadAt(tid, rid, pin.TS()); !ok {
					b.Fatal("pinned read missed")
				}
			}
		})
	}
}

// BenchmarkAblationGroupCommitWindow measures group-commit batching:
// concurrent writers commit with and without a window for the group's leader
// to wait out, reporting transactions per commit group. Larger groups mean fewer
// GroupCommitContext objects — cheaper identification for the group
// collector (§2.2, §4.1).
func BenchmarkAblationGroupCommitWindow(b *testing.B) {
	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		name := "no-window"
		if window > 0 {
			name = "window-200us"
		}
		b.Run(name, func(b *testing.B) {
			db := MustOpen(Config{Txn: TxnConfig{GroupCommitWindow: window, GroupCommitMaxBatch: 64}})
			defer db.Close()
			tid, _ := db.CreateTable("T")
			const writers = 8
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						db.Exec(StmtSI, nil, func(tx *Tx) error {
							_, err := tx.Insert(tid, []byte("x"))
							return err
						})
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			st := db.Stats()
			if st.Txn.GroupsCommitted > 0 {
				b.ReportMetric(float64(st.Txn.TxnsCommitted)/float64(st.Txn.GroupsCommitted), "txns/group")
			}
		})
	}
}

// BenchmarkGroupCommitThroughput measures durable commit throughput under
// parallel single-statement writers: every commit group must be logged and
// fsynced before acknowledgement, so this is the path batched WAL group
// commit (one write + one fsync per group) accelerates.
func BenchmarkGroupCommitThroughput(b *testing.B) {
	db, err := Open(Config{
		Txn:         TxnConfig{GroupCommitWindow: 200 * time.Microsecond, GroupCommitMaxBatch: 64},
		Persistence: &Persistence{Dir: b.TempDir(), Sync: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tid, _ := db.CreateTable("T")
	img := make([]byte, 64)
	b.ReportAllocs()
	b.SetParallelism(8) // 8 writers even on a single-P box, so groups form
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := db.Exec(StmtSI, nil, func(tx *Tx) error {
				_, err := tx.Insert(tid, img)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := db.Stats()
	if st.Txn.TxnsCommitted > 0 {
		b.ReportMetric(float64(st.Txn.TxnsCommitted)/float64(st.Txn.GroupsCommitted), "txns/group")
	}
}
