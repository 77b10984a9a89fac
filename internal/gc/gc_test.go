package gc

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// env wires a catalog, version space and transaction manager the way the
// engine does, so collectors are tested against the real write path.
type env struct {
	t     testing.TB
	cat   *table.Catalog
	space *mvcc.Space
	m     *txn.Manager
}

func newEnv(t testing.TB) *env {
	t.Helper()
	space := mvcc.NewSpace(1 << 10)
	m := txn.NewManager(space, sts.NewRegistry(), txn.Config{})
	t.Cleanup(m.Close)
	return &env{t: t, cat: table.NewCatalog(), space: space, m: m}
}

func (e *env) createTable(name string) *table.Table {
	tbl, err := e.cat.Create(name)
	if err != nil {
		e.t.Fatal(err)
	}
	return tbl
}

func (e *env) write(op mvcc.OpType, tbl *table.Table, rid ts.RID, img string) ts.RID {
	e.t.Helper()
	tx := e.m.Begin(txn.StmtSI, nil)
	var rec *table.Record
	if op == mvcc.OpInsert {
		rid = tbl.AllocRID()
		var err error
		rec, err = tbl.CreateRecord(rid)
		if err != nil {
			e.t.Fatal(err)
		}
	} else {
		rec = tbl.Get(rid)
		if rec == nil {
			e.t.Fatalf("no record %d in %s", rid, tbl.Name)
		}
	}
	var payload []byte
	if op != mvcc.OpDelete {
		payload = []byte(img)
	}
	v := mvcc.NewVersion(op, ts.RecordKey{Table: tbl.ID, RID: rid}, payload, tx.Context())
	tx.Context().Add(v)
	if _, err := e.space.Prepend(rec, v, tx.ConflictCheck()); err != nil {
		e.t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		e.t.Fatal(err)
	}
	return rid
}

func (e *env) insert(tbl *table.Table, img string) ts.RID {
	return e.write(mvcc.OpInsert, tbl, 0, img)
}

func (e *env) update(tbl *table.Table, rid ts.RID, img string) {
	e.write(mvcc.OpUpdate, tbl, rid, img)
}

// read resolves the record image visible at snapshot timestamp at, following
// the engine's read path: is_versioned flag, chain traversal, table-space
// fallback.
func (e *env) read(tbl *table.Table, rid ts.RID, at ts.CID) (string, bool) {
	rec := tbl.Get(rid)
	if rec == nil {
		return "", false
	}
	if rec.Versioned() {
		if ch := e.space.HT.Get(ts.RecordKey{Table: tbl.ID, RID: rid}); ch != nil {
			if v, _ := ch.Visible(at); v != nil {
				if v.Op == mvcc.OpDelete {
					return "", false
				}
				return string(v.Payload), true
			}
		}
	}
	img := rec.Image()
	if img == nil {
		return "", false
	}
	return string(img), true
}

func TestGTReclaimsWholeGroupsBelowHorizon(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	for i := 1; i <= 4; i++ {
		e.update(tbl, rid, fmt.Sprintf("v%d", i))
	}
	if e.space.Live() != 5 {
		t.Fatalf("live = %d", e.space.Live())
	}
	gt := NewGroupTimestamp(e.m)
	st := gt.Collect()
	if st.Versions != 5 {
		t.Fatalf("reclaimed %d versions, want 5: %s", st.Versions, st)
	}
	if st.Groups != 5 {
		t.Fatalf("removed %d groups, want 5", st.Groups)
	}
	if e.space.Live() != 0 || e.space.Groups.Len() != 0 {
		t.Fatalf("live=%d groups=%d after full reclaim", e.space.Live(), e.space.Groups.Len())
	}
	// The latest image must have migrated to the table space.
	if img, ok := e.read(tbl, rid, e.m.CurrentTS()); !ok || img != "v4" {
		t.Fatalf("read after GC = %q,%v want v4", img, ok)
	}
	if gt.Totals.Versions() != 5 || gt.Totals.Runs() != 1 {
		t.Fatal("totals not recorded")
	}
}

func TestGTStopsAtPinnedSnapshot(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	e.update(tbl, rid, "v1")
	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
	defer long.Release()
	pin := long.TS()
	for i := 2; i <= 5; i++ {
		e.update(tbl, rid, fmt.Sprintf("v%d", i))
	}

	gt := NewGroupTimestamp(e.m)
	st := gt.Collect()
	// Only v0 is below the pin (v1 is the newest candidate and is the pinned
	// snapshot's visible image — it survives as the migrated boundary).
	if st.Horizon != pin {
		t.Fatalf("horizon = %d, want %d", st.Horizon, pin)
	}
	if img, ok := e.read(tbl, rid, pin); !ok || img != "v1" {
		t.Fatalf("pinned snapshot reads %q,%v, want v1", img, ok)
	}
	// Groups at or above the pin survive.
	if e.space.Groups.Len() == 0 {
		t.Fatal("pinned groups must survive")
	}
	live := e.space.Live()
	if live < 5 {
		t.Fatalf("live = %d; versions above the pin must survive", live)
	}
	// After release, everything collapses to the single migrated image.
	long.Release()
	gt.Collect()
	if e.space.Live() != 0 {
		t.Fatalf("live after release = %d", e.space.Live())
	}
	if img, ok := e.read(tbl, rid, e.m.CurrentTS()); !ok || img != "v5" {
		t.Fatalf("read = %q,%v want v5", img, ok)
	}
}

func TestSTMatchesGTOutcome(t *testing.T) {
	build := func() (*env, *table.Table, ts.RID) {
		e := newEnv(t)
		tbl := e.createTable("T")
		rid := e.insert(tbl, "v0")
		for i := 1; i <= 9; i++ {
			e.update(tbl, rid, fmt.Sprintf("v%d", i))
		}
		return e, tbl, rid
	}
	e1, _, _ := build()
	e2, _, _ := build()
	st1 := NewSingleTimestamp(e1.m).Collect()
	st2 := NewGroupTimestamp(e2.m).Collect()
	if st1.Versions != st2.Versions {
		t.Fatalf("ST reclaimed %d, GT %d — must match", st1.Versions, st2.Versions)
	}
	if e1.space.Live() != e2.space.Live() {
		t.Fatalf("live: ST %d vs GT %d", e1.space.Live(), e2.space.Live())
	}
}

func TestTableGCUnblocksOtherTables(t *testing.T) {
	e := newEnv(t)
	stock := e.createTable("STOCK")
	orders := e.createTable("ORDERS")
	sRID := e.insert(stock, "s0")
	oRID := e.insert(orders, "o0")

	// Long-lived cursor over STOCK only (scope known under Stmt-SI).
	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{stock.ID})
	defer long.Release()
	pin := long.TS()

	for i := 1; i <= 5; i++ {
		e.update(stock, sRID, fmt.Sprintf("s%d", i))
		e.update(orders, oRID, fmt.Sprintf("o%d", i))
	}

	// GT alone is blocked by the cursor (only pre-pin versions go).
	gt := NewGroupTimestamp(e.m)
	gt.Collect()
	liveAfterGT := e.space.Live()
	if liveAfterGT < 10 {
		t.Fatalf("GT must be blocked by the cursor, live=%d", liveAfterGT)
	}

	// TG discovers the cursor (threshold 0 → immediately long-lived), scopes
	// it to STOCK, and reclaims the ORDERS versions.
	tg := NewTableGC(e.m, time.Nanosecond)
	time.Sleep(time.Millisecond)
	st := tg.Collect()
	if st.SnapshotsScoped != 1 {
		t.Fatalf("scoped %d snapshots, want 1", st.SnapshotsScoped)
	}
	if st.Versions == 0 {
		t.Fatal("TG must reclaim the other table's versions")
	}
	// ORDERS fully reclaimed to its newest image; STOCK still pinned.
	if img, ok := e.read(orders, oRID, e.m.CurrentTS()); !ok || img != "o5" {
		t.Fatalf("orders read = %q,%v", img, ok)
	}
	if img, ok := e.read(stock, sRID, pin); !ok || img != "s0" {
		t.Fatalf("pinned stock read = %q,%v, want s0", img, ok)
	}
	// STOCK chain must still hold the pinned history.
	stockChain := e.space.HT.Get(ts.RecordKey{Table: stock.ID, RID: sRID})
	if stockChain == nil || stockChain.Len() < 5 {
		t.Fatal("stock history must survive TG")
	}
	// After the cursor closes, a GT pass (horizon considers the now-empty
	// per-table tracker) drains the rest.
	long.Release()
	gt.Collect()
	if e.space.Live() != 0 {
		t.Fatalf("live after cursor close = %d", e.space.Live())
	}
}

// TestTableGCFreesOtherTablesVersions runs TG behind a cursor scoped to
// STOCK over groups that each wrote a STOCK and an ORDERS version: the pin
// keeps every group linked, and the ORDERS versions TG reclaims must still
// become garbage to the Go collector — a linked group reaches only its live
// versions.
func TestTableGCFreesOtherTablesVersions(t *testing.T) {
	e := newEnv(t)
	stock := e.createTable("STOCK")
	orders := e.createTable("ORDERS")
	sRID := e.insert(stock, "s0")
	oRID := e.insert(orders, "o0")
	NewGroupTimestamp(e.m).Collect()

	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{stock.ID})
	defer long.Release()
	const n = 5
	for i := 0; i < n; i++ {
		e.update2(stock, sRID, orders, oRID)
	}
	var f finalizers
	watchTable(e.space, orders.ID, &f)
	if f.watched != n {
		t.Fatalf("watching %d ORDERS versions, want %d", f.watched, n)
	}
	tg := NewTableGC(e.m, time.Nanosecond)
	time.Sleep(time.Millisecond)
	if st := tg.Collect(); st.Versions != n {
		t.Fatalf("TG reclaimed %d versions, want the %d ORDERS ones", st.Versions, n)
	}
	if got := e.space.Groups.Len(); got != n {
		t.Fatalf("%d groups linked, want the %d the cursor keeps", got, n)
	}
	f.await(t)
}

// watchTable watches every version of table tid that a linked group holds.
func watchTable(s *mvcc.Space, tid ts.TableID, f *finalizers) {
	s.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		g.Each(func(v *mvcc.Version) {
			if v.Key.Table == tid {
				f.watch(v)
			}
		})
		return true
	})
}

// finalizers watches versions for the Go collector freeing them: a version
// the engine still reaches is never finalized.
type finalizers struct {
	watched int
	freed   atomic.Int32
}

// watch sets a finalizer on v that counts it freed.
func (f *finalizers) watch(v *mvcc.Version) {
	f.watched++
	runtime.SetFinalizer(v, func(*mvcc.Version) { f.freed.Add(1) })
}

// await runs the Go collector until every watched version is finalized, and
// fails t if some never is; a chain of finalizable versions takes a cycle
// per link.
func (f *finalizers) await(t testing.TB) {
	t.Helper()
	for i := 0; i < 100 && int(f.freed.Load()) < f.watched; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := int(f.freed.Load()); n != f.watched {
		t.Fatalf("%d of %d reclaimed versions finalized: the rest are still reachable", n, f.watched)
	}
}

func TestIntervalCollectsBehindPin(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
	defer long.Release()
	pin := long.TS()
	for i := 1; i <= 10; i++ {
		e.update(tbl, rid, fmt.Sprintf("v%d", i))
	}
	// A second snapshot at the current timestamp creates the upper window
	// bound, standing in for ongoing OLTP statements.
	cur := e.m.AcquireSnapshot(txn.KindStatement, nil)
	defer cur.Release()

	si := NewInterval(e.m)
	st := si.Collect()
	// Versions v1..v9 sit between the pin and the current snapshot with no
	// snapshot inside their intervals; all but the newest (v10) are interval
	// garbage.
	if st.Versions != 9 {
		t.Fatalf("SI reclaimed %d, want 9: %s", st.Versions, st)
	}
	// Both snapshots still read correctly.
	if img, ok := e.read(tbl, rid, pin); !ok || img != "v0" {
		t.Fatalf("pinned read = %q,%v want v0", img, ok)
	}
	if img, ok := e.read(tbl, rid, cur.TS()); !ok || img != "v10" {
		t.Fatalf("current read = %q,%v want v10", img, ok)
	}
	// Chain shrank to {v0, v10} (plus nothing else).
	ch := e.space.HT.Get(ts.RecordKey{Table: tbl.ID, RID: rid})
	if got := ch.Len(); got != 2 {
		t.Fatalf("chain length = %d, want 2", got)
	}
	// Idempotent.
	if st := si.Collect(); st.Versions != 0 {
		t.Fatalf("second SI pass reclaimed %d", st.Versions)
	}
}

func TestIntervalRespectsMiddleSnapshot(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
	defer long.Release()
	for i := 1; i <= 3; i++ {
		e.update(tbl, rid, fmt.Sprintf("v%d", i))
	}
	mid := e.m.AcquireSnapshot(txn.KindStatement, nil) // pins v3
	defer mid.Release()
	for i := 4; i <= 6; i++ {
		e.update(tbl, rid, fmt.Sprintf("v%d", i))
	}
	top := e.m.AcquireSnapshot(txn.KindStatement, nil)
	defer top.Release()

	midWant, _ := e.read(tbl, rid, mid.TS())
	NewInterval(e.m).Collect()
	if img, ok := e.read(tbl, rid, mid.TS()); !ok || img != midWant {
		t.Fatalf("middle snapshot read changed: %q vs %q", img, midWant)
	}
	if img, ok := e.read(tbl, rid, top.TS()); !ok || img != "v6" {
		t.Fatalf("top read = %q,%v", img, ok)
	}
}

func TestGroupIntervalMatchesInterval(t *testing.T) {
	build := func() (*env, *txn.Snapshot, *txn.Snapshot, *table.Table, ts.RID) {
		e := newEnv(t)
		tbl := e.createTable("T")
		rid := e.insert(tbl, "v0")
		long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
		for i := 1; i <= 8; i++ {
			e.update(tbl, rid, fmt.Sprintf("v%d", i))
		}
		cur := e.m.AcquireSnapshot(txn.KindStatement, nil)
		return e, long, cur, tbl, rid
	}
	e1, l1, c1, _, _ := build()
	e2, l2, c2, tbl2, rid2 := build()
	defer func() { l1.Release(); c1.Release(); l2.Release(); c2.Release() }()

	si := NewInterval(e1.m).Collect()
	gi := NewGroupInterval(e2.m).Collect()
	if si.Versions != gi.Versions {
		t.Fatalf("SI reclaimed %d, GI %d — same garbage set expected", si.Versions, gi.Versions)
	}
	// GI preserves reads too.
	if img, ok := e2.read(tbl2, rid2, l2.TS()); !ok || img != "v0" {
		t.Fatalf("GI pinned read = %q,%v", img, ok)
	}
	if img, ok := e2.read(tbl2, rid2, c2.TS()); !ok || img != "v8" {
		t.Fatalf("GI current read = %q,%v", img, ok)
	}
}

func TestHybridCombinesAll(t *testing.T) {
	e := newEnv(t)
	stock := e.createTable("STOCK")
	orders := e.createTable("ORDERS")
	sRID := e.insert(stock, "s0")
	oRID := e.insert(orders, "o0")
	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{stock.ID})
	defer long.Release()
	for i := 1; i <= 6; i++ {
		e.update(stock, sRID, fmt.Sprintf("s%d", i))
		e.update(orders, oRID, fmt.Sprintf("o%d", i))
	}
	cur := e.m.AcquireSnapshot(txn.KindStatement, nil)
	defer cur.Release()

	h := NewHybrid(e.m, Periods{}, time.Nanosecond)
	time.Sleep(time.Millisecond)
	h.Collect()

	// Orders collapse via TG; stock keeps only the pinned boundary plus the
	// newest version thanks to SI.
	if img, ok := e.read(orders, oRID, e.m.CurrentTS()); !ok || img != "o6" {
		t.Fatalf("orders read = %q,%v", img, ok)
	}
	if img, ok := e.read(stock, sRID, long.TS()); !ok || img != "s0" {
		t.Fatalf("pinned stock read = %q,%v", img, ok)
	}
	if img, ok := e.read(stock, sRID, cur.TS()); !ok || img != "s6" {
		t.Fatalf("current stock read = %q,%v", img, ok)
	}
	// GT migrated s0 to the table space (the pin is at the o0 insert's CID,
	// above the s0 insert), and SI removed every intermediate version, so
	// only the newest stock version remains in the chain.
	stockChain := e.space.HT.Get(ts.RecordKey{Table: stock.ID, RID: sRID})
	if stockChain.Len() != 1 {
		t.Fatalf("stock chain length = %d, want 1 (newest only)", stockChain.Len())
	}
	if h.ReclaimedByTG() == 0 || h.ReclaimedBySI() == 0 {
		t.Fatalf("per-collector totals: GT=%d TG=%d SI=%d",
			h.ReclaimedByGT(), h.ReclaimedByTG(), h.ReclaimedBySI())
	}
}

func TestHybridScheduler(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: 2 * time.Millisecond, TG: 5 * time.Millisecond, SI: 7 * time.Millisecond}, time.Millisecond)
	h.Start()
	h.Start() // idempotent
	for i := 1; i <= 50; i++ {
		e.update(tbl, rid, fmt.Sprintf("v%d", i))
		time.Sleep(300 * time.Microsecond)
	}
	deadline := time.Now().Add(time.Second)
	for e.space.Live() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent
	if e.space.Live() != 0 {
		t.Fatalf("scheduler left %d live versions", e.space.Live())
	}
	if img, ok := e.read(tbl, rid, e.m.CurrentTS()); !ok || img != "v50" {
		t.Fatalf("read = %q,%v", img, ok)
	}
	if h.GT.Totals.Runs() == 0 {
		t.Fatal("GT never ran")
	}
}

// TestGCSafetyOracle runs a randomized history and checks, after every
// collector pass, that every active snapshot still reads exactly what it
// read before the pass — the fundamental safety property of all collectors.
func TestGCSafetyOracle(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	var rids []ts.RID
	for i := 0; i < 8; i++ {
		rids = append(rids, e.insert(tbl, fmt.Sprintf("r%d-0", i)))
	}
	type obs struct {
		snap *txn.Snapshot
		view map[ts.RID]string
	}
	capture := func(s *txn.Snapshot) obs {
		view := make(map[ts.RID]string)
		for _, rid := range rids {
			if img, ok := e.read(tbl, rid, s.TS()); ok {
				view[rid] = img
			}
		}
		return obs{snap: s, view: view}
	}
	verify := func(o obs, label string) {
		for _, rid := range rids {
			img, ok := e.read(tbl, rid, o.snap.TS())
			want, wantOK := o.view[rid]
			if ok != wantOK || img != want {
				t.Fatalf("%s: snapshot %d sees %q/%v for rid %d, expected %q/%v",
					label, o.snap.TS(), img, ok, rid, want, wantOK)
			}
		}
	}

	collectors := []Collector{
		NewSingleTimestamp(e.m),
		NewGroupTimestamp(e.m),
		NewTableGC(e.m, time.Nanosecond),
		NewInterval(e.m),
		NewGroupInterval(e.m),
	}
	var held []obs
	rnd := uint64(12345)
	next := func(n int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int((rnd >> 33) % uint64(n))
	}
	for round := 0; round < 60; round++ {
		// Random writes.
		for k := 0; k < 5; k++ {
			rid := rids[next(len(rids))]
			e.update(tbl, rid, fmt.Sprintf("r%d-%d", rid, round*10+k))
		}
		// Randomly open/close snapshots.
		if len(held) < 4 && next(2) == 0 {
			held = append(held, capture(e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})))
		}
		if len(held) > 0 && next(4) == 0 {
			i := next(len(held))
			held[i].snap.Release()
			held = append(held[:i], held[i+1:]...)
		}
		// Random collector pass, then verify every held snapshot.
		c := collectors[next(len(collectors))]
		c.Collect()
		for _, o := range held {
			verify(o, c.Name())
		}
	}
	for _, o := range held {
		o.snap.Release()
	}
}

// TestRegionsFigure9 validates the Figure 9 region diagnostic: versions
// split into the group collector's region A (below every snapshot), the
// table collector's region B (pinned only by scoped snapshots), and the
// interval collector's region C.
func TestRegionsFigure9(t *testing.T) {
	e := newEnv(t)
	stock := e.createTable("STOCK")
	orders := e.createTable("ORDERS")

	// Two versions fully below everything (region A once snapshots exist
	// above them).
	aRID := e.insert(orders, "a0")
	e.update(orders, aRID, "a1")

	// A cursor pins STOCK; TG scopes it away from the global tracker.
	long := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{stock.ID})
	defer long.Release()
	sRID := e.insert(stock, "s0")
	e.update(stock, sRID, "s1")
	e.update(orders, aRID, "a2")
	cur := e.m.AcquireSnapshot(txn.KindStatement, nil)
	defer cur.Release()
	e.update(stock, sRID, "s2")

	// Before scoping: union min == global min == the cursor's ts, so
	// everything at/above it is region C and below it region A; B is empty.
	r := CurrentRegions(e.m)
	if r.B != 0 {
		t.Fatalf("region B before scoping = %d: %s", r.B, r)
	}
	// Only a0 (cid strictly below the cursor's timestamp) is in region A;
	// a1 committed at the cursor's exact timestamp and is its visible image.
	if r.A != 1 {
		t.Fatalf("region A = %d (the strictly-below version): %s", r.A, r)
	}
	if r.Total() != e.space.Live() {
		t.Fatalf("regions total %d != live %d", r.Total(), e.space.Live())
	}

	// Scope the cursor: versions between the cursor ts and the statement
	// snapshot move from C to B.
	e.m.View().ScopeLongLived(0)
	r = CurrentRegions(e.m)
	if r.B == 0 {
		t.Fatalf("region B after scoping = 0: %s", r)
	}
	if r.Total() != e.space.Live() {
		t.Fatalf("regions total %d != live %d", r.Total(), e.space.Live())
	}
	// GT drains region A; the others remain.
	NewGroupTimestamp(e.m).Collect()
	r = CurrentRegions(e.m)
	if r.A != 0 {
		t.Fatalf("region A after GT = %d: %s", r.A, r)
	}
}

// TestPassesSerializeOnTheLatch holds the collector latch the way a pass in
// flight does: RunGT, RunTG, RunSI and Collect all queue behind it — there
// is no skipping path — and all run once it is free.
func TestPassesSerializeOnTheLatch(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	e.update(tbl, rid, "v1")
	h := NewHybrid(e.m, Periods{}, 0)

	h.mu.Lock()
	runs := map[string]func() RunStats{"Collect": h.Collect, "RunGT": h.RunGT, "RunTG": h.RunTG, "RunSI": h.RunSI}
	done := make(chan string, len(runs))
	for name, run := range runs {
		go func() { run(); done <- name }()
	}
	select {
	case name := <-done:
		t.Fatalf("%s ran while the latch was held", name)
	case <-time.After(20 * time.Millisecond):
	}
	if live := e.space.Live(); live == 0 {
		t.Fatal("something reclaimed while another pass held the latch")
	}
	h.mu.Unlock()
	for range runs {
		<-done
	}
	if got := h.GT.Totals.Runs(); got != int64(len(runs)) {
		t.Fatalf("GT ran %d times, want %d: every pass begins with it", got, len(runs))
	}
	if live := e.space.Live(); live != 0 {
		t.Fatalf("live = %d after four passes with no snapshot", live)
	}
}

// nineTables builds what the one-scan test and BenchmarkPassEmpty run on:
// TPC-C's table count, one row each (four in the last table, which is
// partitioned four ways), a Hybrid whose table collector resolves
// partitions, and a table-scoped and a partition-scoped cursor, both older
// than the two rounds of updates that follow them.
func nineTables(e *env) (h *Hybrid, tables []*table.Table, rids []ts.RID, held []*txn.Snapshot) {
	for i := 0; i < 9; i++ {
		tbl := e.createTable(fmt.Sprintf("T%d", i))
		tables, rids = append(tables, tbl), append(rids, e.insert(tbl, "v0"))
	}
	parted := tables[8]
	parted.SetPartitions(4)
	for p := 1; p < 4; p++ {
		tables, rids = append(tables, parted), append(rids, e.insert(parted, "v0"))
	}
	h = NewHybrid(e.m, Periods{}, time.Nanosecond)
	h.TG.Resolver = func(key ts.RecordKey) (ts.PartitionID, bool) {
		return parted.PartitionOf(key.RID), key.Table == parted.ID
	}
	held = []*txn.Snapshot{
		e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tables[0].ID}),
		e.m.AcquireSnapshotPartitions(txn.KindCursor, parted.ID, []ts.PartitionID{1}),
	}
	for round := 1; round <= 2; round++ {
		for i, tbl := range tables {
			e.update(tbl, rids[i], fmt.Sprintf("v%d", round))
		}
	}
	return h, tables, rids, held
}

// TestHybridPassIsOneScan: a pass is one decision over one state of the
// snapshot trackers (§4.4, Fig. 9), so it reads them once — whatever the
// number of tables and partitions TG keeps a horizon for — and a snapshot it
// finds long-lived is scoped and stops constraining the other tables in that
// same pass.
func TestHybridPassIsOneScan(t *testing.T) {
	e := newEnv(t)
	h, tables, rids, held := nineTables(e)
	held = append(held, e.m.AcquireSnapshot(txn.KindTransaction, nil)) // unscoped, newest
	for _, s := range held {
		defer s.Release()
	}
	for i, tbl := range tables {
		e.update(tbl, rids[i], "v3")
	}
	time.Sleep(time.Millisecond) // every snapshot is past the 1 ns threshold

	before := e.m.Scans()
	st := h.Collect()
	if got := e.m.Scans() - before; got != 1 {
		t.Fatalf("one Collect took %d scans of the announcement array, want 1", got)
	}
	if st.SnapshotsScoped != 2 {
		t.Fatalf("scoped %d snapshots, want the two cursors", st.SnapshotsScoped)
	}
	// Tables 1..7 and partitions 0, 2, 3 are constrained only by the unscoped
	// snapshot now: TG, in the pass that scoped the cursors, took everything
	// below it there (v2, which it reads, is the table-space image now, and
	// only v3 is left in the chain — but for the last row, whose v2 commit is
	// the snapshot's own timestamp). Table 0 and partition 1 keep their
	// cursor's v0 as the image and v2, v3 in the chain; SI took v1.
	unscoped := held[2].TS()
	for i, tbl := range tables {
		pinned := i == 0 || tbl == tables[8] && tbl.PartitionOf(rids[i]) == 1
		want := 1
		if pinned || i == len(tables)-1 {
			want = 2
		}
		if n := e.space.HT.Get(ts.RecordKey{Table: tbl.ID, RID: rids[i]}).Len(); n != want {
			t.Errorf("%s rid %d (pinned %v): chain length %d, want %d", tbl.Name, rids[i], pinned, n, want)
		}
		if img, ok := e.read(tbl, rids[i], unscoped); !ok || img != "v2" {
			t.Errorf("%s rid %d: the unscoped snapshot reads %q,%v, want v2", tbl.Name, rids[i], img, ok)
		}
		if img, ok := e.read(tbl, rids[i], held[0].TS()); pinned && (!ok || img != "v0") {
			t.Errorf("%s rid %d: its cursor reads %q,%v, want v0", tbl.Name, rids[i], img, ok)
		}
	}
	if h.TG.Totals.Versions() == 0 || h.SI.Totals.Versions() == 0 {
		t.Fatalf("per-collector totals: GT=%d TG=%d SI=%d", h.GT.Totals.Versions(), h.TG.Totals.Versions(), h.SI.Totals.Versions())
	}

	// A pass with nothing to do is one scan too.
	before = e.m.Scans()
	if st := h.Collect(); st.Versions != 0 || e.m.Scans()-before != 1 {
		t.Fatalf("idle pass: reclaimed %d in %d scans, want 0 in 1", st.Versions, e.m.Scans()-before)
	}
}
