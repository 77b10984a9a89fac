package htap

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/gc"
	"hybridgc/internal/shard"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

var laneSchema = colstore.Schema{
	{Name: "amount", Type: colstore.Int64},
	{Name: "region", Type: colstore.String},
}

func openTest(t *testing.T, cfg core.Config) *core.DB {
	t.Helper()
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func enc(t testing.TB, amount int64, region string) []byte {
	t.Helper()
	img, err := colstore.EncodeRow(laneSchema, colstore.Row{colstore.IntV(amount), colstore.StrV(region)})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func insertRow(t testing.TB, db *core.DB, tid ts.TableID, amount int64, region string) ts.RID {
	t.Helper()
	var rid ts.RID
	if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		var err error
		rid, err = tx.Insert(tid, enc(t, amount, region))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return rid
}

func updateRow(t testing.TB, db *core.DB, tid ts.TableID, rid ts.RID, amount int64, region string) {
	t.Helper()
	if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		return tx.Update(tid, rid, enc(t, amount, region))
	}); err != nil {
		t.Fatal(err)
	}
}

func newTestStore(db *core.DB) *Store {
	return NewStore(db, Config{ChunkSlots: 8})
}

func scalar(t *testing.T, st *Store, tid ts.TableID, spec AggSpec) (int64, *AggResult) {
	t.Helper()
	res, err := st.Aggregate(tid, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("%v: %d groups, want 1", spec, len(res.Groups))
	}
	return res.Groups[0].Result(spec.Op), res
}

// TestMigrateAndAggregate is the basic lane lifecycle: settled rows migrate
// into chunks, aggregates come from vectors, and the un-migrated delta tail
// is stitched in through row reads.
func TestMigrateAndAggregate(t *testing.T) {
	db := openTest(t, core.Config{})
	tid, err := db.CreateTable("FACTS")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(db)
	if err := st.EnableTable(tid, laneSchema); err != nil {
		t.Fatal(err)
	}

	regions := []string{"emea", "apj", "amer"}
	const n = 40
	var wantSum int64
	for i := 0; i < n; i++ {
		insertRow(t, db, tid, int64(i+1), regions[i%3])
		wantSum += int64(i + 1)
	}
	db.GC().Collect()
	if got := st.Migrate(); got != n {
		t.Fatalf("Migrate moved %d rows, want %d", got, n)
	}

	if sum, res := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"}); sum != wantSum {
		t.Fatalf("SUM = %d, want %d", sum, wantSum)
	} else if res.RowRows != 0 || res.ChunkRows != n {
		t.Fatalf("SUM served chunk=%d row=%d, want %d/0", res.ChunkRows, res.RowRows, n)
	}
	if cnt, _ := scalar(t, st, tid, AggSpec{Op: AggCount}); cnt != n {
		t.Fatalf("COUNT = %d, want %d", cnt, n)
	}
	if mn, _ := scalar(t, st, tid, AggSpec{Op: AggMin, Col: "amount"}); mn != 1 {
		t.Fatalf("MIN = %d, want 1", mn)
	}
	if mx, _ := scalar(t, st, tid, AggSpec{Op: AggMax, Col: "amount"}); mx != n {
		t.Fatalf("MAX = %d, want %d", mx, n)
	}

	if _, err := st.Aggregate(tid, AggSpec{Op: AggSum, Col: "region"}); err == nil {
		t.Fatal("SUM over a string column must fail")
	}

	// GROUP BY over the dictionary column: the keys come back typed.
	res, err := st.Aggregate(tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("%d groups, want 3", len(res.Groups))
	}
	var groupTotal int64
	for _, g := range res.Groups {
		if g.Key.Type != colstore.String || g.Key.I != 0 {
			t.Fatalf("group key %+v is not a string value", g.Key)
		}
		groupTotal += g.Sum
	}
	if groupTotal != wantSum {
		t.Fatalf("grouped sums total %d, want %d", groupTotal, wantSum)
	}

	// Delta tail: fresh inserts are visible before any migration pass. This
	// one commits in one transaction with a write to a row-store table.
	orders, err := db.CreateTable("ORDERS")
	if err != nil {
		t.Fatal(err)
	}
	var order ts.RID
	if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		if _, err := tx.Insert(tid, enc(t, 1000, "emea")); err != nil {
			return err
		}
		order, err = tx.Insert(orders, []byte("order"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sum, sres := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"})
	if sum != wantSum+1000 {
		t.Fatalf("SUM with delta = %d, want %d", sum, wantSum+1000)
	}
	if sres.RowRows == 0 {
		t.Fatal("delta row was not served through the row path")
	}

	// An update dirties its chunk slot; the aggregate must reflect it
	// immediately (row fallback), then return to the vectors after
	// settle+migrate.
	updateRow(t, db, tid, 1, 501, regions[0]) // amount 1 -> 501
	wantSum += 500
	if sum, _ := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"}); sum != wantSum+1000 {
		t.Fatalf("SUM after update = %d, want %d", sum, wantSum+1000)
	}
	db.GC().Collect()
	st.Migrate()
	sum, sres = scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"})
	if sum != wantSum+1000 {
		t.Fatalf("SUM after re-migrate = %d, want %d", sum, wantSum+1000)
	}
	if sres.RowRows != 0 {
		t.Fatalf("%d rows still on the row path after re-migrate", sres.RowRows)
	}
	stats := st.Stats()
	if len(stats) != 1 || stats[0].Chunks == 0 || stats[0].MigratedRows < n+1 {
		t.Fatalf("unexpected lane stats: %+v", stats)
	}
	if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		img, err := tx.Get(orders, order)
		if err == nil && string(img) != "order" {
			err = fmt.Errorf("ORDERS row reads %q", img)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateConsistencyUnderChurn hammers the lane with concurrent
// balance-preserving transfers while the migrator and garbage collector
// run; every aggregate must observe the invariant total.
func TestAggregateConsistencyUnderChurn(t *testing.T) {
	db := openTest(t, core.Config{})
	tid, err := db.CreateTable("ACCTS")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(db)
	if err := st.EnableTable(tid, laneSchema); err != nil {
		t.Fatal(err)
	}

	const n = 64
	const each = 100
	rids := make([]ts.RID, n)
	for i := range rids {
		rids[i] = insertRow(t, db, tid, each, fmt.Sprintf("r%d", i%4))
	}
	db.GC().Collect()
	st.Migrate()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Transfer workers: each transaction moves 1 between two rows, keeping
	// the total constant.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rids[(w*16+i)%n], rids[(w*16+i*7+1)%n]
				if a == b {
					continue
				}
				// Trans-SI: the whole transfer runs against one snapshot
				// with first-committer-wins, so a conflicting transfer
				// aborts instead of applying a lost update — the invariant
				// the scan checks depends on it.
				db.Exec(txn.TransSI, []ts.TableID{tid}, func(tx *core.Tx) error {
					ra, err := tx.Get(tid, a)
					if err != nil {
						return err
					}
					rb, err := tx.Get(tid, b)
					if err != nil {
						return err
					}
					rowA, err := colstore.DecodeRow(laneSchema, ra)
					if err != nil {
						return err
					}
					rowB, err := colstore.DecodeRow(laneSchema, rb)
					if err != nil {
						return err
					}
					imgA, _ := colstore.EncodeRow(laneSchema, colstore.Row{colstore.IntV(rowA[0].I - 1), rowA[1]})
					imgB, _ := colstore.EncodeRow(laneSchema, colstore.Row{colstore.IntV(rowB[0].I + 1), rowB[1]})
					if err := tx.Update(tid, a, imgA); err != nil {
						return err
					}
					return tx.Update(tid, b, imgB)
				})
			}
		}(w)
	}
	// Background settle + migrate churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.GC().Collect()
				st.Migrate()
			}
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	checks := 0
	for time.Now().Before(deadline) {
		if sum, _ := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"}); sum != n*each {
			close(stop)
			wg.Wait()
			t.Fatalf("SUM = %d under churn, want %d (check %d)", sum, n*each, checks)
		}
		if cnt, _ := scalar(t, st, tid, AggSpec{Op: AggCount}); cnt != n {
			close(stop)
			wg.Wait()
			t.Fatalf("COUNT = %d under churn, want %d", cnt, n)
		}
		checks++
	}
	close(stop)
	wg.Wait()
	if checks == 0 {
		t.Fatal("no consistency checks ran")
	}
}

// TestPinnedCursorBlocksMigration is the guard's positive direction: a
// registered cursor snapshot pins the table horizon, the chains above it
// cannot settle, and the migrator must leave those rows on the row path —
// where the cursor's timestamp still resolves the old versions.
func TestPinnedCursorBlocksMigration(t *testing.T) {
	db := openTest(t, core.Config{})
	tid, err := db.CreateTable("FACTS")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(db)
	if err := st.EnableTable(tid, laneSchema); err != nil {
		t.Fatal(err)
	}

	const n = 16
	rids := make([]ts.RID, n)
	for i := range rids {
		rids[i] = insertRow(t, db, tid, 10, "old")
	}
	db.GC().Collect()
	st.Migrate()

	// Pin the table at the pre-update state.
	cursor := db.Manager().AcquireSnapshot(txn.KindCursor, []ts.TableID{tid})
	pinnedTS := cursor.TS()

	for _, rid := range rids {
		updateRow(t, db, tid, rid, 20, "new")
	}
	db.GC().Collect() // must NOT settle: the cursor pins the horizon
	migrated := st.Migrate()
	if migrated != 0 {
		t.Fatalf("migrator moved %d rows whose versions a pinned snapshot still needs", migrated)
	}
	stats := st.Stats()[0]
	if stats.DirtyRows != n {
		t.Fatalf("DirtyRows = %d, want %d (blocked rows must stay on the row path)", stats.DirtyRows, n)
	}

	// The pinned cursor still reads the old world through the row path...
	l := st.lane(tid)
	p, err := compile(laneSchema, AggSpec{Op: AggSum, Col: "amount"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.aggregateAt(l, p, AggSum, pinnedTS)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Sum; got != n*10 {
		t.Fatalf("pinned-TS SUM = %d, want %d (old versions must remain reachable)", got, n*10)
	}
	// ...while a fresh scan sees the new values.
	if sum, _ := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"}); sum != n*20 {
		t.Fatalf("fresh SUM = %d, want %d", sum, n*20)
	}

	// Release the pin: GC settles, the next pass migrates, the lane drains.
	cursor.Release()
	db.GC().Collect()
	if got := st.Migrate(); got != n {
		t.Fatalf("post-release Migrate moved %d rows, want %d", got, n)
	}
	stats = st.Stats()[0]
	if stats.DirtyRows != 0 {
		t.Fatalf("DirtyRows = %d after release, want 0", stats.DirtyRows)
	}
	sum, res2 := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"})
	if sum != n*20 || res2.RowRows != 0 {
		t.Fatalf("settled SUM = %d (row rows %d), want %d served fully from chunks", sum, res2.RowRows, n*20)
	}
}

// TestLaneCursorLeavesRowTablesToTG is §4.3's row/column separation on the
// served path: a long OLAP cursor over a lane-enabled table blocks the group
// collector everywhere, and once the table collector has scoped it to FACTS
// the row table's garbage goes while the cursor still aggregates its own
// snapshot of the lane.
func TestLaneCursorLeavesRowTablesToTG(t *testing.T) {
	db := openTest(t, core.Config{})
	facts, _ := db.CreateTable("FACTS")
	orders, _ := db.CreateTable("ORDERS")
	st := newTestStore(db)
	if err := st.EnableTable(facts, laneSchema); err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		insertRow(t, db, facts, 10, "emea")
	}
	order := insertRow(t, db, orders, 0, "o")
	db.GC().Collect()
	st.Migrate()

	olap := db.Manager().AcquireSnapshot(txn.KindCursor, []ts.TableID{facts})
	defer olap.Release()
	for i := 1; i <= 50; i++ {
		updateRow(t, db, orders, order, int64(i), "o")
	}
	gc.NewGroupTimestamp(db.Manager()).Collect()
	blocked := db.Space().Live()
	if blocked < 50 {
		t.Fatalf("GT must be blocked by the OLAP cursor, live=%d", blocked)
	}
	tg := gc.NewTableGC(db.Manager(), time.Nanosecond)
	time.Sleep(time.Millisecond)
	run := tg.Collect()
	if run.SnapshotsScoped != 1 || run.Versions == 0 {
		t.Fatalf("TG did not confine the lane cursor: %s", run)
	}
	if live := db.Space().Live(); live >= blocked {
		t.Fatalf("ORDERS versions not reclaimed: %d >= %d", live, blocked)
	}
	p, err := compile(laneSchema, AggSpec{Op: AggSum, Col: "amount"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.aggregateAt(st.lane(facts), p, AggSum, olap.TS())
	if err != nil || res.Groups[0].Sum != n*10 || res.RowRows != 0 {
		t.Fatalf("cursor-TS SUM over the lane = %+v, %v; want %d from chunks", res, err, n*10)
	}
}

// TestVisibilityGuardRegression is the red test: with the guard reverted
// (guardOff), the migrator copies a still-chained row's table-space image
// into a chunk — and a scan after the in-flight transaction commits reads a
// stale aggregate from the vectors. The guard exists precisely to make the
// second half of this test impossible.
func TestVisibilityGuardRegression(t *testing.T) {
	run := func(t *testing.T, guardOff bool) int64 {
		db := openTest(t, core.Config{})
		tid, err := db.CreateTable("FACTS")
		if err != nil {
			t.Fatal(err)
		}
		st := newTestStore(db)
		if err := st.EnableTable(tid, laneSchema); err != nil {
			t.Fatal(err)
		}
		rid := insertRow(t, db, tid, 10, "x")
		db.GC().Collect()
		st.Migrate()

		// An in-flight transaction rewrites the row (the new version is
		// prepended immediately; commit only stamps it later).
		tx := db.Begin(txn.StmtSI)
		if err := tx.Update(tid, rid, enc(t, 20, "x")); err != nil {
			t.Fatal(err)
		}
		st.guardOff.Store(guardOff)
		st.Migrate() // the update dirtied the row, forcing a rebuild
		st.guardOff.Store(false)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		sum, _ := scalar(t, st, tid, AggSpec{Op: AggSum, Col: "amount"})
		return sum
	}

	t.Run("guard-reverted", func(t *testing.T) {
		if sum := run(t, true); sum != 10 {
			t.Fatalf("SUM = %d; the reverted guard was expected to expose the stale chunk value 10 — "+
				"if this now reads 20, the red test lost its teeth", sum)
		}
	})
	t.Run("guard-on", func(t *testing.T) {
		if sum := run(t, false); sum != 20 {
			t.Fatalf("SUM = %d, want 20 (guard must keep the still-chained row on the row path)", sum)
		}
	})
}

// TestManagerShardedAggregate runs the lane across a sharded engine:
// per-shard migrators, cross-shard merge, and the pinned-snapshot guard on
// one shard while the others keep migrating.
func TestManagerShardedAggregate(t *testing.T) {
	eng, err := shard.Open(shard.Config{
		Shards: 3,
		Configure: func(int) core.Config {
			return core.Config{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tid, err := eng.CreateTable("FACTS")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetPlacement(tid, engine.Placement{Kind: engine.PlaceInterleave}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(eng, Config{ChunkSlots: 8})
	if err := m.EnableTable(tid, laneSchema); err != nil {
		t.Fatal(err)
	}

	regions := []string{"emea", "apj"}
	const n = 48
	var wantSum int64
	for i := 0; i < n; i++ {
		img, _ := colstore.EncodeRow(laneSchema, colstore.Row{colstore.IntV(int64(i + 1)), colstore.StrV(regions[i%2])})
		if err := eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
			_, err := tx.InsertAt(tid, img, i)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		wantSum += int64(i + 1)
	}
	for i := 0; i < eng.Shards(); i++ {
		eng.Shard(i).GC().Collect()
	}
	if got := m.Migrate(); got != n {
		t.Fatalf("Migrate moved %d rows across shards, want %d", got, n)
	}

	res, err := m.Aggregate(tid, AggSpec{Op: AggSum, Col: "amount"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Sum; got != wantSum {
		t.Fatalf("sharded SUM = %d, want %d", got, wantSum)
	}
	if res.RowRows != 0 {
		t.Fatalf("%d rows on the row path after full migration", res.RowRows)
	}
	grouped, err := m.Aggregate(tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped.Groups) != 2 {
		t.Fatalf("%d merged groups, want 2", len(grouped.Groups))
	}
	var total int64
	for _, g := range grouped.Groups {
		total += g.Sum
	}
	if total != wantSum {
		t.Fatalf("merged group total = %d, want %d", total, wantSum)
	}

	// Sharded guard leg: pin shard 0 with a cursor, update every row; shard
	// 0's updated rows must stay un-migrated while other shards settle, and
	// the merged aggregate stays correct throughout.
	sh0 := eng.Shard(0)
	cursor := sh0.Manager().AcquireSnapshot(txn.KindCursor, []ts.TableID{tid})
	for i := 0; i < eng.Shards(); i++ {
		sh := eng.Shard(i)
		maxRID, err := sh.TableMaxRID(tid)
		if err != nil {
			t.Fatal(err)
		}
		for rid := ts.RID(1); rid <= maxRID; rid++ {
			img, ok := sh.ReadAt(tid, rid, sh.Manager().CurrentTS())
			if !ok {
				continue
			}
			row, err := colstore.DecodeRow(laneSchema, img)
			if err != nil {
				t.Fatal(err)
			}
			img2, _ := colstore.EncodeRow(laneSchema, colstore.Row{colstore.IntV(row[0].I + 1000), row[1]})
			if err := sh.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
				return tx.Update(tid, rid, img2)
			}); err != nil {
				t.Fatal(err)
			}
			wantSum += 1000
		}
	}
	for i := 0; i < eng.Shards(); i++ {
		eng.Shard(i).GC().Collect()
	}
	m.Migrate()
	if st := m.Store(0).Stats(); len(st) == 0 || st[0].DirtyRows == 0 {
		t.Fatalf("shard 0's pinned rows were migrated: %+v", st)
	}
	res, err = m.Aggregate(tid, AggSpec{Op: AggSum, Col: "amount"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Groups[0].Sum; got != wantSum {
		t.Fatalf("sharded SUM with pinned shard = %d, want %d", got, wantSum)
	}
	if res.RowRows == 0 {
		t.Fatal("pinned shard rows must be served through the row path")
	}
	cursor.Release()
}

// TestBackgroundMigrator checks the Start/Stop loop migrates without manual
// passes.
func TestBackgroundMigrator(t *testing.T) {
	db := openTest(t, core.Config{})
	tid, err := db.CreateTable("FACTS")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(db, Config{ChunkSlots: 8, Interval: time.Millisecond})
	if err := st.EnableTable(tid, laneSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		insertRow(t, db, tid, 1, "r")
	}
	db.GC().Collect()
	st.Start()
	defer st.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := st.Stats(); len(s) == 1 && s[0].MigratedRows >= 16 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("background migrator made no progress: %+v", st.Stats())
}
