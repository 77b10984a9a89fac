package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// insertRows loads n rows in commit batches of batch, staying under a
// configured version budget (committed batches are collectable; one giant
// transaction's uncommitted versions are not).
func insertRows(db *DB, tid ts.TableID, n, batch int) error {
	for done := 0; done < n; {
		tx := db.Begin(txn.StmtSI)
		for i := 0; i < batch && done < n; i++ {
			if _, err := tx.Insert(tid, []byte("v0")); err != nil {
				tx.Abort()
				return err
			}
			done++
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// TestVersionBudgetBoundsOverflow reproduces the overflow scenario of
// Figure 2 — an update-heavy workload with a pinned snapshot blocking
// collection — with a VersionBudget configured, and asserts the ladder
// defends the hard watermark: live versions stay bounded, the pinning
// snapshot is evicted (its owner sees ErrSnapshotKilled), autocommit
// statements keep working, and the run completes instead of growing without
// bound. The pin is a cursor or a forgotten Trans-SI transaction, §1's two
// long-lived blockers.
func TestVersionBudgetBoundsOverflow(t *testing.T) {
	// Each pin returns its owner's next operation.
	pins := []struct {
		name string
		pin  func(t *testing.T, db *DB, tid ts.TableID) (next func() error)
	}{
		{"Cursor", func(t *testing.T, db *DB, tid ts.TableID) func() error {
			cur, err := db.OpenCursor(tid)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cur.Close)
			if _, _, err := cur.Fetch(10); err != nil {
				t.Fatal(err)
			}
			return func() error { _, _, err := cur.Fetch(10); return err }
		}},
		{"TransSI", func(t *testing.T, db *DB, tid ts.TableID) func() error {
			tx := db.Begin(txn.TransSI)
			t.Cleanup(tx.Abort)
			if _, err := tx.Get(tid, 1); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := tx.Get(tid, 1); return err }
		}},
	}
	for _, pc := range pins {
		t.Run(pc.name, func(t *testing.T) { testBudgetBoundsOverflow(t, pc.pin) })
	}
}

func testBudgetBoundsOverflow(t *testing.T, pin func(*testing.T, *DB, ts.TableID) func() error) {
	const (
		rows = 2000
		soft = 800
		hard = 1600
	)
	db := openTest(t, Config{
		VersionBudget: VersionBudget{Soft: soft, Hard: hard},
	})

	tid := mustCreate(t, db, "t")
	// Load in batches small enough to stay under the budget: uncommitted
	// versions count toward it and cannot be collected, so one huge insert
	// transaction would trip backpressure against itself.
	if err := insertRows(db, tid, rows, 100); err != nil {
		t.Fatal(err)
	}
	// Let the ladder collect the insert burst before pinning, so the
	// pinned snapshot is the only thing blocking collection below.
	deadline := time.Now().Add(2 * time.Second)
	for db.Space().Live() >= soft && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	next := pin(t, db, tid)

	// Update every row once: with the snapshot pinned, each update leaves at
	// least one live version per row — 2000 > hard — so the budget is only
	// defensible by evicting the pin.
	var maxLive int64
	for i := 0; i < rows; i++ {
		err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
			return tx.Update(tid, ts.RID(i+1), []byte("v1"))
		})
		if err != nil && !errors.Is(err, ErrVersionPressure) {
			t.Fatalf("update %d: %v", i, err)
		}
		if errors.Is(err, ErrVersionPressure) {
			i-- // retry the same row after the ladder relieves
			time.Sleep(2 * time.Millisecond)
		}
		if live := db.Space().Live(); live > maxLive {
			maxLive = live
		}
	}

	// Writers at the hard watermark wait for the loop; allow a batch of
	// overshoot beyond it before the loop's pass and eviction react.
	const slack = 256
	if maxLive > hard+slack {
		t.Fatalf("live versions peaked at %d, want <= hard %d + slack %d", maxLive, hard, hard+slack)
	}
	ps := db.PressureStats()
	if !ps.Enabled {
		t.Fatal("PressureStats not enabled despite configured budget")
	}
	if ps.Evicted < 1 {
		t.Fatalf("no snapshot evicted under hard-watermark pressure: %+v", ps)
	}
	if ps.SoftTrips < 1 || ps.Emergencies < 1 {
		t.Fatalf("ladder never engaged: %+v", ps)
	}
	// The evicted snapshot's owner must observe the force-close.
	if err := next(); !errors.Is(err, ErrSnapshotKilled) {
		t.Fatalf("owner's next operation after eviction = %v, want ErrSnapshotKilled", err)
	}
	// Statement snapshots are exempt: autocommit reads keep working.
	if got, err := get1(t, db, tid, 1); err != nil || got != "v1" {
		t.Fatalf("statement read after eviction = %q, %v", got, err)
	}
	if db.PressureStats().Evicted < 1 {
		t.Fatal("PressureStats().Evicted not incremented by eviction")
	}
	st := db.Stats()
	if !st.Pressure.Enabled || st.Pressure.Evicted != ps.Evicted {
		t.Fatalf("Stats().Pressure disagrees with PressureStats(): %+v vs %+v", st.Pressure, ps)
	}
}

// TestVersionBudgetBackpressureRejects drives the version space over the
// soft watermark while a pin that eviction exempts — a statement held open
// inside a Scan callback — holds collection back below hard, and asserts
// writers get the bounded-wait-then-ErrVersionPressure behavior rather than
// blocking forever, that nothing is evicted, and that the ladder comes back
// to rest once the statement ends.
func TestVersionBudgetBackpressureRejects(t *testing.T) {
	const (
		rows = 400
		soft = 100
	)
	db := openTest(t, Config{
		// Hard far away: only evictAfter could end the stall, and it finds
		// no snapshot it may evict.
		VersionBudget: VersionBudget{Soft: soft, Hard: 1 << 30},
	})
	tid := mustCreate(t, db, "t")
	if err := insertRows(db, tid, rows, 50); err != nil {
		t.Fatal(err)
	}
	// The load itself can take the ladder to backpressure for a moment; let
	// the collectors drain it and the ladder come back to normal, or the
	// loop below would read that stale rung as the one the pin causes.
	deadline := time.Now().Add(2 * time.Second)
	for (db.Space().Live() >= soft || db.PressureStats().Level != PressureNormal) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	scanning, release, scanned := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		scanned <- db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
			return tx.Scan(tid, func(ts.RID, []byte) bool {
				close(scanning)
				<-release
				return false
			})
		})
	}()
	<-scanning
	released := false
	unpin := func() {
		if !released {
			released = true
			close(release)
			if err := <-scanned; err != nil {
				t.Errorf("the pinning scan: %v", err)
			}
		}
	}
	defer unpin()

	update := func(i int) error {
		return db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
			return tx.Update(tid, ts.RID(i%rows+1), []byte("v1"))
		})
	}
	// Each row's newest committed version is irreducible while the
	// statement pins (SI spares chain heads), so cycling updates over the
	// rows pushes live over soft for good. Write until the ladder reports the backpressure rung —
	// it needs one full pass that ends over soft, so neither an iteration
	// count nor a sleep would do; the deadline only bounds a broken run.
	stop := time.Now().Add(30 * time.Second)
	for i := 0; db.PressureStats().Level != PressureBackpressure; i++ {
		if time.Now().After(stop) {
			t.Fatalf("the ladder never reached backpressure: %+v", db.PressureStats())
		}
		if err := update(i); err != nil && !errors.Is(err, ErrVersionPressure) {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	// The rung holds as long as the pin does, past evictAfter: every writer
	// now waits out maxWriterWait and is rejected, also while the loop
	// re-walks the ladder on the waiters' rings.
	for i := 0; i < 5; i++ {
		if err := update(i); !errors.Is(err, ErrVersionPressure) {
			t.Fatalf("update under backpressure = %v, want ErrVersionPressure (%+v)", err, db.PressureStats())
		}
	}
	ps := db.PressureStats()
	if ps.Backpressured < 1 || ps.Rejected < 1 {
		t.Fatalf("backpressure counters not advanced: %+v", ps)
	}
	if ps.Evicted != 0 {
		t.Fatalf("evicted %d snapshots: a statement is never a victim", ps.Evicted)
	}
	unpin()
	deadline = time.Now().Add(5 * time.Second)
	for db.PressureStats().Level != PressureNormal {
		if time.Now().After(deadline) {
			t.Fatalf("the ladder stayed raised after the pin ended: %+v", db.PressureStats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := update(0); err != nil {
		t.Fatalf("update after the pin ended: %v", err)
	}
}

// TestEmergencyRungRunsTheTableCollector: a cursor scoped to table A pins the
// global horizon while table B grows past the soft watermark. Everything B
// accumulates is reclaimable — by the table collector, and by nobody else:
// each record's only version is its newest, which the interval collector
// never touches — so the loop's pass over soft has to be the full §4.4 pass:
// live versions come back under the watermark and the ladder never reaches
// eviction. (The rung used to run GT and SI only and evicted the cursor.)
func TestEmergencyRungRunsTheTableCollector(t *testing.T) {
	const soft, hard = 400, 4000
	db, err := Open(Config{
		LongLivedThreshold: time.Nanosecond,
		VersionBudget:      VersionBudget{Soft: soft, Hard: hard},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, err := db.CreateTable("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRows(db, a, 10, 10); err != nil {
		t.Fatal(err)
	}
	cur, err := db.OpenCursor(a)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	// Insert into B several times the soft watermark, a row per commit. With
	// the cursor on A pinning the global horizon, GT takes none of them.
	if err := insertRows(db, b, 6*soft, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Space().Live() >= soft && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := db.PressureStats()
	if st.Live >= soft {
		t.Fatalf("live = %d, still at or over the soft watermark %d: %+v", st.Live, soft, st)
	}
	if st.Emergencies == 0 {
		t.Fatalf("the churn never ran a full pass for the budget: %+v", st)
	}
	if st.Evicted != 0 || st.Rejected != 0 {
		t.Fatalf("the ladder went past the full pass: %+v", st)
	}
	if _, _, err := cur.Fetch(1); err != nil {
		t.Fatalf("the cursor on A must have survived: %v", err)
	}
}

// TestBudgetRunsOnlyTheLoop: the ladder has no goroutine of its own. A DB
// with a budget runs exactly one goroutine, HybridGC's collector loop,
// whether or not AutoGC asked for it, and Close leaves none behind.
func TestBudgetRunsOnlyTheLoop(t *testing.T) {
	settled := func(what string) {
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if n, _, stacks := engineGoroutines(); n == 0 {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: %d engine goroutines:\n%s", what, n, stacks)
			}
		}
	}
	for _, cfg := range []Config{
		{VersionBudget: VersionBudget{Soft: 100}},
		{VersionBudget: VersionBudget{Soft: 100}, GC: gc.DefaultPeriods(), AutoGC: true},
	} {
		settled("before Open") // earlier tests' loops may still be on their way out
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, loops, stacks := engineGoroutines()
		db.Close()
		if n != 1 || loops != 1 {
			t.Fatalf("AutoGC=%v: Open started %d goroutines, %d of them collector loops; want the loop alone:\n%s", cfg.AutoGC, n, loops, stacks)
		}
		settled(fmt.Sprintf("AutoGC=%v: after Close", cfg.AutoGC))
	}
}

// engineGoroutines counts the goroutines the engine's packages started (not
// tests), and among them the collector loops.
func engineGoroutines() (n, loops int, stacks string) {
	buf := make([]byte, 1<<20)
	stacks = string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		i := strings.Index(g, "\ncreated by hybridgc/internal/")
		if i < 0 || strings.Contains(g[i:], ".Test") {
			continue
		}
		n++
		if strings.Contains(g[i:], "gc.(*Hybrid).Start") {
			loops++
		}
	}
	return n, loops, stacks
}
