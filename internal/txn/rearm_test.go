package txn

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// TestStatementRearmNarrowsOnlyItsTable races the table collector against
// one Stmt-SI transaction that re-arms its statement snapshot on tables A
// and B in turn while commits land on both. One goroutine loops View +
// ScopeLongLived(0), so every arming is narrowed as soon as a pass sees it.
// Asserted, from both sides: while an arming on table X is held, its handle
// is either unnarrowed or narrowed to exactly X, and a view taken while it
// is held never puts TableHorizon(X) above its timestamp.
//
// Red-test property: narrowing that reads the snapshot's scope from a plain
// field and CASes the handle's scope from nil — the shape before statement
// snapshots were re-armed, with arming storing nil — fails this in under
// 100 ms (six runs of six on 2 vCPUs), and under -race at the first overlap: the
// collector reads A, the statement re-arms on B, and the CAS from nil
// narrows B's statement to A, letting TG reclaim B versions it still reads.
func TestStatementRearmNarrowsOnlyItsTable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const A, B = ts.TableID(1), ts.TableID(2)
	duration := time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	m := newTestManager(t, Config{})
	tx := m.Begin(StmtSI, nil)
	defer tx.Abort()
	tx.Statement(A).Release() // allocates the statement snapshot
	stmt := tx.snap
	// gen is odd while an arming is held: table A for gen%4 == 1, B for 3.
	var gen atomic.Uint64
	tableOf := func(g uint64) ts.TableID {
		if g%4 == 1 {
			return A
		}
		return B
	}
	narrowedTo := func(want ts.TableID) bool {
		got := stmt.h.Scoped()
		return got == nil || slices.Equal(got, []ts.TableID{want})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	spin := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					body()
				}
			}
		}()
	}
	for _, tid := range []ts.TableID{A, B} {
		rec, rid := &nopRecord{}, ts.RID(0)
		spin(func() {
			rid++
			w := m.Begin(StmtSI, nil)
			v := mvcc.NewVersion(mvcc.OpInsert, ts.RecordKey{Table: tid, RID: rid}, []byte("x"), w.Context())
			w.Context().Add(v)
			if _, err := m.Space().Prepend(rec, v, w.ConflictCheck()); err != nil {
				t.Error(err)
			}
			if _, err := w.Commit(); err != nil {
				t.Error(err)
			}
		})
	}
	var narrowed atomic.Int64
	var cv View
	spin(func() {
		m.ViewInto(&cv)
		narrowed.Add(cv.ScopeLongLived(0))
		g1 := gen.Load()
		ok := narrowedTo(tableOf(g1))
		if g1%2 == 1 && gen.Load() == g1 && !ok {
			t.Errorf("collector: arming %d on table %d narrowed to %v", g1, tableOf(g1), stmt.h.Scoped())
		}
	})

	var v View
	armings := 0
	for deadline := time.Now().Add(duration); time.Now().Before(deadline) && !t.Failed(); armings++ {
		tid := tableOf(gen.Load() + 1)
		s := tx.Statement(tid)
		if s != stmt {
			t.Fatal("a statement outside any other must re-arm the transaction's snapshot")
		}
		gen.Add(1)
		runtime.Gosched() // let a pass see this arming
		m.ViewInto(&v)
		if h := v.TableHorizon(tid); h > s.TS() {
			t.Errorf("arming %d on table %d at %d: TableHorizon = %d", armings, tid, s.TS(), h)
		}
		if !narrowedTo(tid) {
			t.Errorf("arming %d on table %d narrowed to %v", armings, tid, stmt.h.Scoped())
		}
		gen.Add(1)
		s.Release()
	}
	close(stop)
	wg.Wait()
	if narrowed.Load() == 0 {
		t.Fatalf("the collector narrowed none of %d armings: the race was never run", armings)
	}
	t.Logf("%d armings, %d narrowed", armings, narrowed.Load())
}
