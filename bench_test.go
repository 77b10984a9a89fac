// Benchmarks regenerating every figure of the paper's evaluation section
// (§5), one testing.B benchmark per figure, plus ablation benchmarks for
// the design choices DESIGN.md calls out. Each figure iteration runs the
// full experiment at smoke scale and reports the figure's headline numbers
// as custom metrics; `cmd/hybridgc-bench` runs the same experiments at full
// scale with complete series output.
package hybridgc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/bench"
	"hybridgc/internal/colstore"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/txn"
	"hybridgc/internal/workload"
)

func quickSuite() *bench.Suite {
	return bench.NewSuite(bench.SuiteConfig{Quick: true})
}

// runFigure executes one figure per iteration and returns the last report.
func runFigure(b *testing.B, id string) *bench.Report {
	b.Helper()
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = quickSuite().Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// lastOf extracts the final value of the labeled series.
func lastOf(rep *bench.Report, label string) float64 {
	for _, s := range rep.Series {
		if s.Label == label {
			return s.Series.Last()
		}
	}
	return 0
}

// BenchmarkFig10VersionSpace regenerates Figure 10: record versions over
// time with a long-duration cursor, per collector configuration.
func BenchmarkFig10VersionSpace(b *testing.B) {
	rep := runFigure(b, "fig10")
	b.ReportMetric(lastOf(rep, "GT"), "GT-final-versions")
	b.ReportMetric(lastOf(rep, "GT+TG"), "GTTG-final-versions")
	b.ReportMetric(lastOf(rep, "HG"), "HG-final-versions")
}

// BenchmarkFig11ReclaimBreakdown regenerates Figure 11: accumulated
// reclaimed versions per collector under HG.
func BenchmarkFig11ReclaimBreakdown(b *testing.B) {
	rep := runFigure(b, "fig11")
	b.ReportMetric(lastOf(rep, "GT"), "GT-reclaimed")
	b.ReportMetric(lastOf(rep, "TG"), "TG-reclaimed")
	b.ReportMetric(lastOf(rep, "SI"), "SI-reclaimed")
}

// BenchmarkFig12Throughput regenerates Figure 12: TPC-C throughput over time
// with a long-duration cursor.
func BenchmarkFig12Throughput(b *testing.B) {
	rep := runFigure(b, "fig12")
	b.ReportMetric(lastOf(rep, "GT"), "GT-stmts/s")
	b.ReportMetric(lastOf(rep, "HG"), "HG-stmts/s")
}

// BenchmarkFig13HashCollision regenerates Figure 13: hash collision ratio
// over time.
func BenchmarkFig13HashCollision(b *testing.B) {
	rep := runFigure(b, "fig13")
	b.ReportMetric(lastOf(rep, "GT"), "GT-collision-ratio")
	b.ReportMetric(lastOf(rep, "HG"), "HG-collision-ratio")
}

// BenchmarkFig14FetchLatency regenerates Figure 14: the latency of
// individual FETCH operations of an incremental query.
func BenchmarkFig14FetchLatency(b *testing.B) {
	rep := runFigure(b, "fig14")
	b.ReportMetric(float64(len(rep.Rows)), "fetch-rows")
}

// BenchmarkFig15FetchTraversal regenerates Figure 15: record versions
// traversed per FETCH.
func BenchmarkFig15FetchTraversal(b *testing.B) {
	rep := runFigure(b, "fig15")
	b.ReportMetric(float64(len(rep.Rows)), "fetch-rows")
}

// BenchmarkFig16TransSILatency regenerates Figure 16: scan latency inside
// repeated Trans-SI transactions.
func BenchmarkFig16TransSILatency(b *testing.B) {
	rep := runFigure(b, "fig16")
	b.ReportMetric(float64(len(rep.Rows)), "modes")
}

// BenchmarkFig17TransSIVersions regenerates Figure 17: the saw-tooth version
// population under Trans-SI.
func BenchmarkFig17TransSIVersions(b *testing.B) {
	rep := runFigure(b, "fig17")
	b.ReportMetric(lastOf(rep, "HG"), "HG-final-versions")
}

// BenchmarkFig18PeriodSweepNoCursor regenerates Figure 18: throughput vs GC
// invocation period without a long snapshot.
func BenchmarkFig18PeriodSweepNoCursor(b *testing.B) {
	rep := runFigure(b, "fig18")
	b.ReportMetric(float64(len(rep.Rows)), "sweep-points")
}

// BenchmarkFig19PeriodSweepCursor regenerates Figure 19: the same sweep with
// a long-duration cursor.
func BenchmarkFig19PeriodSweepCursor(b *testing.B) {
	rep := runFigure(b, "fig19")
	b.ReportMetric(float64(len(rep.Rows)), "sweep-points")
}

// --- Ablations (A01-A03 in DESIGN.md) and engine micro-benchmarks ---

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

// BenchmarkWorkloadThroughputByMode runs the plain TPC-C workload briefly
// under each GC mode and reports statements/s — the overhead comparison of
// §5.6 at the left edge of Figure 18.
func BenchmarkWorkloadThroughputByMode(b *testing.B) {
	for _, m := range []workload.Mode{workload.ModeGT, workload.ModeGTTG, workload.ModeHG} {
		b.Run(m.String(), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(workload.Options{
					Mode:     m,
					TPCC:     tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 60, Seed: 7},
					Duration: 400 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				tput = res.AvgThroughput()
			}
			b.ReportMetric(tput, "stmts/s")
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
		lane, err := htap.NewStore(db, htap.Config{ChunkSlots: rows})
		if err != nil {
			b.Fatal(err)
		}
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
