package gc

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// BenchmarkPassPinnedWindow prices one TG pass and one SI pass behind a held,
// table-scoped snapshot, at a constant 256 new commit groups per pass and a
// growing pinned window: width groups committed since the snapshot began that
// each still hold a live version of the pinned table beside one of another
// table that TG has reclaimed, which is what the group list looks like under
// a long cursor (htap_pin). An incremental pass costs the 256 new groups
// whatever the width; a pass that re-walks the window is linear in it.
// heap-B/group is the Go heap the engine holds after the passes, per group
// of the window: what a linked group costs, flat while it keeps none of its
// reclaimed versions reachable.
func BenchmarkPassPinnedWindow(b *testing.B) {
	const fresh = 256
	for _, width := range []int{1_000, 10_000, 100_000} {
		base := heapAlloc()
		e := newEnv(b)
		stock, orders := e.createTable("STOCK"), e.createTable("ORDERS")
		// The rows whose one update after the pin makes up the window — a
		// STOCK row and an ORDERS row per group — and the hot rows every
		// pass's new groups update again.
		rows := make([]ts.RID, width+fresh)
		for i := range rows {
			rows[i] = e.insert(stock, "s")
		}
		order := make([]ts.RID, width+fresh)
		for i := range order {
			order[i] = e.insert(orders, "o")
		}
		gt, tg, si := NewGroupTimestamp(e.m), NewTableGC(e.m, time.Nanosecond), NewInterval(e.m)
		gt.Collect()
		pin := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{stock.ID})
		for i, rid := range rows[:width] {
			e.update2(stock, rid, orders, order[i])
		}
		tg.Collect() // scopes the pin to STOCK, reclaims the window's ORDERS versions
		si.Collect()
		if n := e.space.Groups.Len(); n < width {
			b.Fatalf("window is %d groups wide, want %d", n, width)
		}
		// One pass's worth of commits, each updating a hot STOCK row (which
		// closes its previous version's interval: SI's work) and an ORDERS
		// row (TG's).
		commit := func() {
			for i, rid := range rows[width:] {
				e.update2(stock, rid, orders, order[width+i])
			}
			gt.Collect() // §4.4: every pass begins with GT; here it stops at the pin
		}
		b.Run(fmt.Sprintf("TG/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				commit()
				b.StartTimer()
				st := tg.Collect()
				b.StopTimer()
				if st.Versions < fresh {
					b.Fatalf("TG reclaimed %d versions of %d new groups", st.Versions, fresh)
				}
				si.Collect()
			}
			b.ReportMetric(float64(heapAlloc()-base)/float64(width), "heap-B/group")
		})
		b.Run(fmt.Sprintf("SI/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				commit()
				tg.Collect()
				b.StartTimer()
				st := si.Collect()
				b.StopTimer()
				if st.Versions < fresh {
					b.Fatalf("SI reclaimed %d versions of %d new groups", st.Versions, fresh)
				}
			}
			b.ReportMetric(float64(heapAlloc()-base)/float64(width), "heap-B/group")
		})
		pin.Release()
	}
}

// BenchmarkPassEmpty prices one Hybrid pass that finds nothing to collect —
// what the loop pays for being woken — on nine tables (one partitioned) with
// 64 live snapshots: two long cursors, already scoped, that make TG keep a
// horizon for every table and partition, and 62 statement snapshots at the
// head. scans/op is how many times the pass reads the announcement array.
func BenchmarkPassEmpty(b *testing.B) {
	e := newEnv(b)
	h, _, _, held := nineTables(e)
	for len(held) < 64 {
		held = append(held, e.m.AcquireSnapshot(txn.KindStatement, nil))
	}
	time.Sleep(time.Millisecond) // the cursors are past the 1 ns threshold
	h.Collect()                  // scopes them, meets every table, leaves nothing
	scans := e.m.Scans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := h.Collect(); st.Versions != 0 {
			b.Fatalf("an empty pass reclaimed %d versions", st.Versions)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.m.Scans()-scans)/float64(b.N), "scans/op")
	for _, s := range held {
		s.Release()
	}
}

// heapAlloc returns the bytes of live Go heap objects after a collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// update2 commits one transaction updating a record in each of two tables.
func (e *env) update2(t1 *table.Table, r1 ts.RID, t2 *table.Table, r2 ts.RID) {
	e.t.Helper()
	tx := e.m.Begin(txn.StmtSI, nil)
	for _, w := range []struct {
		tbl *table.Table
		rid ts.RID
	}{{t1, r1}, {t2, r2}} {
		v := mvcc.NewVersion(mvcc.OpUpdate, ts.RecordKey{Table: w.tbl.ID, RID: w.rid}, []byte("u"), tx.Context())
		tx.Context().Add(v)
		if _, err := e.space.Prepend(w.tbl.Get(w.rid), v, tx.ConflictCheck()); err != nil {
			e.t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
}
