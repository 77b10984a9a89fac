package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/gc"
	"hybridgc/internal/oracle"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// modelWriter is the primary's only writer: seeded transactions of inserts,
// updates and deletes over a few tables, each commit recorded in an
// oracle.Model at the CID it committed at.
type modelWriter struct {
	t      *testing.T
	db     *core.DB
	rng    *rand.Rand
	model  *oracle.Model
	tables []ts.TableID
	rows   map[ts.TableID][]ts.RID // the rows not deleted
	n      int                     // images written, so every image is unique
}

func newModelWriter(t *testing.T, db *core.DB, seed int64) *modelWriter {
	w := &modelWriter{t: t, db: db, rng: rand.New(rand.NewSource(seed)),
		model: oracle.NewModel(), rows: make(map[ts.TableID][]ts.RID)}
	for i := 0; i < 3; i++ {
		w.tables = append(w.tables, mustCreateTable(t, db, fmt.Sprintf("m%d", i)))
	}
	return w
}

// commit runs n transactions of one to four writes each, no row written
// twice in one, and calls the primary's collector after every tenth: with
// no snapshot of its own, the primary reclaims everything it can.
func (w *modelWriter) commit(n int) {
	w.t.Helper()
	type effect struct {
		key ts.RecordKey
		img string
	}
	for i := 0; i < n; i++ {
		tx := w.db.Begin(txn.StmtSI)
		var effects []effect
		for k := 1 + w.rng.Intn(4); k > 0; k-- {
			tid := w.tables[w.rng.Intn(len(w.tables))]
			rows := w.rows[tid]
			w.n++
			img := fmt.Sprintf("t%d-%d", tid, w.n)
			op, j := w.rng.Intn(10), 0
			if len(rows) > 0 {
				j = w.rng.Intn(len(rows))
			}
			touched := len(rows) > 0 && slices.ContainsFunc(effects, func(e effect) bool {
				return e.key == ts.RecordKey{Table: tid, RID: rows[j]}
			})
			var err error
			switch {
			case len(rows) < 8 || op < 3 || touched:
				var rid ts.RID
				rid, err = tx.Insert(tid, []byte(img))
				w.rows[tid] = append(rows, rid)
				effects = append(effects, effect{ts.RecordKey{Table: tid, RID: rid}, img})
			case op < 9:
				err = tx.Update(tid, rows[j], []byte(img))
				effects = append(effects, effect{ts.RecordKey{Table: tid, RID: rows[j]}, img})
			default:
				err = tx.Delete(tid, rows[j])
				effects = append(effects, effect{ts.RecordKey{Table: tid, RID: rows[j]}, ""})
				w.rows[tid] = slices.Delete(rows, j, j+1)
			}
			if err != nil {
				w.t.Fatal(err)
			}
		}
		cid, err := tx.CommitCID()
		if err != nil {
			w.t.Fatal(err)
		}
		for _, e := range effects {
			w.model.Apply(e.key, cid, e.img)
		}
		if i%10 == 9 {
			w.db.GC().Collect()
		}
	}
}

// heldCursor is a replica cursor opened on one table and held; it is read
// back in full, a few rows per Fetch, possibly across several calls.
type heldCursor struct {
	what string
	tid  ts.TableID
	cur  *core.Cursor
	got  []string
}

// openCursors opens one cursor per table on the replica engine db.
func (w *modelWriter) openCursors(db *core.DB, what string) []*heldCursor {
	w.t.Helper()
	var out []*heldCursor
	for _, tid := range w.tables {
		cur, err := db.OpenCursor(tid)
		if err != nil {
			w.t.Fatal(err)
		}
		w.t.Cleanup(cur.Close)
		out = append(out, &heldCursor{what: fmt.Sprintf("%s cursor on table %d", what, tid), tid: tid, cur: cur})
	}
	return out
}

// fetch reads up to n more rows.
func (h *heldCursor) fetch(t *testing.T, n int) {
	t.Helper()
	for n > 0 && !h.cur.Exhausted() {
		rows, _, err := h.cur.Fetch(min(n, 3))
		if err != nil {
			t.Fatalf("%s: %v", h.what, err)
		}
		for _, img := range rows {
			h.got = append(h.got, string(img))
		}
		n -= 3
	}
}

// check reads the rest and requires exactly the rows the model says are
// visible at the cursor's snapshot, in RID order — every image is unique, so
// equal sequences are equal rows.
func (h *heldCursor) check(t *testing.T, model *oracle.Model) {
	t.Helper()
	h.fetch(t, 1<<30)
	at := h.cur.SnapshotTS()
	var want []string
	for _, k := range model.Keys() {
		if img, ok := model.Read(k, at); ok && k.Table == h.tid {
			want = append(want, img)
		}
	}
	if !slices.Equal(h.got, want) {
		t.Fatalf("%s at %d read %d rows %v, the model has %d: %v", h.what, at, len(h.got), h.got, len(want), want)
	}
}

// primaryForgot counts the rows the model says are visible at snapshot at
// that the primary now reads otherwise: versions a replica cursor at at
// still reads, reclaimed on the primary.
func (w *modelWriter) primaryForgot(at ts.CID) int {
	n := 0
	for _, k := range w.model.Keys() {
		want, wok := w.model.Read(k, at)
		img, ok := w.db.ReadAt(k.Table, k.RID, at)
		if ok != wok || string(img) != want {
			n++
		}
	}
	return n
}

// TestReplicaReadsMatchModelWithoutPin: a replica snapshot reads the
// replica's own engine, and that engine's own collector is what keeps its
// versions, so the primary owes it nothing. The primary runs its full hybrid
// collector with no trace of the replica's readers while seeded inserts,
// updates and deletes churn three tables; replica cursors opened at several
// points are held, and every row each reads back must be what oracle.Model
// says is visible at its snapshot. Three paths:
//
//  1. steady streaming, with the primary's horizon past every open replica
//     cursor and versions they read already reclaimed on the primary;
//  2. demotion: the applier stalls until the source demotes the replica; a
//     cursor still open on the old engine keeps matching, and so does one on
//     the re-bootstrapped engine;
//  3. primary drain: the primary's server shuts down with a replica cursor
//     open, the primary commits and collects on, the cursor still matches.
func TestReplicaReadsMatchModelWithoutPin(t *testing.T) {
	scfg := fastSource()
	scfg.MaxSegmentLag = 1
	p := startPrimary(t, scfg, func(c *core.Config) {
		c.AutoGC = true
		c.GC = gc.Periods{GT: 5 * time.Millisecond, TG: 10 * time.Millisecond, SI: 10 * time.Millisecond}
		c.LongLivedThreshold = 10 * time.Millisecond
	})
	w := newModelWriter(t, p.db, 48)
	w.commit(100)
	r := startReplica(t, p.addr, "reader")
	waitCaughtUp(t, p, r)

	// 1. Steady streaming: cursors opened at three points, each read in part
	// between rounds of churn, all held to the end of the path.
	var steady []*heldCursor
	for round := 0; round < 3; round++ {
		steady = append(steady, w.openCursors(r.db, fmt.Sprintf("steady round %d", round))...)
		w.commit(100)
		waitCaughtUp(t, p, r)
		for _, h := range steady {
			h.fetch(t, 4)
		}
	}
	oldest := steady[0].cur.SnapshotTS()
	w.commit(20) // the last commits collect with every cursor's versions superseded
	// The primary has heard from the replica since every cursor opened.
	applied := r.rep.AppliedLSN()
	waitFor(t, 5*time.Second, "a report from the replica's cursors' era", func() bool {
		return wal.LSN(replicaStat(t, p).AppliedLSN) >= applied
	})
	p.db.GC().Collect()
	if h := p.db.Manager().View().Horizon(); h <= oldest {
		t.Fatalf("primary horizon %d, not past the oldest replica cursor %d", h, oldest)
	}
	if n := w.primaryForgot(oldest); n == 0 {
		t.Fatalf("the primary still reads every row as of %d: the test reclaimed nothing a replica cursor reads", oldest)
	}
	if h := r.db.Manager().View().Horizon(); h > oldest {
		t.Fatalf("replica horizon %d passed its own open cursor %d", h, oldest)
	}
	waitCaughtUp(t, p, r)
	for _, h := range steady {
		h.check(t, w.model)
	}

	// 2. Demotion and re-bootstrap. The stalled applier freezes the applied
	// LSN while the primary's log rotates past the lag bound.
	old := w.openCursors(r.db, "pre-demotion")
	for _, h := range old {
		h.fetch(t, 4)
	}
	fault.Enable(FPApplyStall, fault.Sleep(1500*time.Millisecond))
	t.Cleanup(func() { fault.Disable(FPApplyStall) })
	sent := p.src.recordsSent.Load()
	w.commit(1)
	waitFor(t, 5*time.Second, "the stalling record to ship", func() bool {
		return p.src.recordsSent.Load() > sent
	})
	for i := 0; i < 3; i++ {
		if _, err := p.db.WAL().Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.waitExit(t, 10*time.Second); !errors.Is(err, ErrBootstrapRequired) {
		t.Fatalf("stalled replica exited with %v, want ErrBootstrapRequired", err)
	}
	fault.Disable(FPApplyStall)
	if low, ok := p.src.lowestNeeded(); ok {
		t.Fatalf("demoted replica still holds segment retention at %d", low)
	}
	w.commit(100)
	r2 := startReplica(t, p.addr, "reader")
	waitCaughtUp(t, p, r2)
	fresh := w.openCursors(r2.db, "re-bootstrapped")
	w.commit(100)
	waitCaughtUp(t, p, r2)
	for _, h := range append(old, fresh...) {
		h.check(t, w.model)
	}

	// 3. Primary drain with a replica cursor open.
	draining := w.openCursors(r2.db, "drain")
	for _, h := range draining {
		h.fetch(t, 4)
	}
	start := time.Now()
	p.srv.Shutdown(5 * time.Second)
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain with a replica cursor open took %v", d)
	}
	w.commit(100)
	if at := draining[0].cur.SnapshotTS(); w.primaryForgot(at) == 0 {
		t.Fatalf("the primary still reads every row as of %d after the drain", at)
	}
	for _, h := range draining {
		h.check(t, w.model)
	}
}
