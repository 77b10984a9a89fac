package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

func openTest(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func mustCreate(t *testing.T, db *DB, name string) ts.TableID {
	t.Helper()
	id, err := db.CreateTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// autocommit helpers.
func insert1(t *testing.T, db *DB, tid ts.TableID, img string) ts.RID {
	t.Helper()
	var rid ts.RID
	err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte(img))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

func update1(t *testing.T, db *DB, tid ts.TableID, rid ts.RID, img string) {
	t.Helper()
	if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		return tx.Update(tid, rid, []byte(img))
	}); err != nil {
		t.Fatal(err)
	}
}

func get1(t *testing.T, db *DB, tid ts.TableID, rid ts.RID) (string, error) {
	t.Helper()
	var img []byte
	err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		var err error
		img, err = tx.Get(tid, rid)
		return err
	})
	return string(img), err
}

func TestCRUDRoundTrip(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "hello")

	if got, err := get1(t, db, tid, rid); err != nil || got != "hello" {
		t.Fatalf("get = %q,%v", got, err)
	}
	update1(t, db, tid, rid, "world")
	if got, _ := get1(t, db, tid, rid); got != "world" {
		t.Fatalf("get after update = %q", got)
	}
	if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		return tx.Delete(tid, rid)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := get1(t, db, tid, rid); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("get after delete = %v, want ErrRecordNotFound", err)
	}
}

func TestTableAPI(t *testing.T) {
	db := openTest(t, Config{})
	mustCreate(t, db, "A")
	mustCreate(t, db, "B")
	if db.TableID("A") == 0 || db.TableID("NOPE") != 0 {
		t.Fatal("TableID lookups broken")
	}
	ids, err := db.TableIDs("A", "B")
	if err != nil || len(ids) != 2 {
		t.Fatalf("TableIDs = %v, %v", ids, err)
	}
	if _, err := db.TableIDs("A", "MISSING"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("missing table = %v", err)
	}
	names := db.Tables()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Tables = %v", names)
	}
	// Operations against unknown tables fail cleanly.
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		_, err := tx.Get(999, 1)
		return err
	})
	if !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("unknown table = %v", err)
	}
}

func TestStmtSISeesLatestCommitted(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v1")

	tx := db.Begin(txn.StmtSI)
	defer tx.Abort()
	if img, err := tx.Get(tid, rid); err != nil || string(img) != "v1" {
		t.Fatalf("first stmt read %q,%v", img, err)
	}
	// Another transaction commits in between; a later statement of the same
	// Stmt-SI transaction sees the new value.
	update1(t, db, tid, rid, "v2")
	if img, err := tx.Get(tid, rid); err != nil || string(img) != "v2" {
		t.Fatalf("second stmt read %q,%v — Stmt-SI must see latest", img, err)
	}
}

// TestNestedStatementTakesItsOwnSnapshot: a statement that begins inside
// another's callback on the same Stmt-SI transaction — sql's UPDATE inside a
// Scan — finds the transaction's statement snapshot armed and reads at a
// fresh one of its own, leaving the outer scan's snapshot armed and where it
// was; nothing stays announced after commit.
func TestNestedStatementTakesItsOwnSnapshot(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	scanned := insert1(t, db, tid, "a")
	other := insert1(t, db, tid, "b")

	tx := db.Begin(txn.StmtSI)
	calls := 0
	err := tx.Scan(tid, func(rid ts.RID, _ []byte) bool {
		if rid != scanned {
			return true
		}
		calls++
		v := db.Manager().View()
		var outer *txn.Snapshot
		v.Snapshots(func(s *txn.Snapshot) { outer = s })
		if v.Len() != 1 || outer == nil {
			t.Fatalf("inside the scan: %d announcements, want the scan's statement", v.Len())
		}
		at := outer.TS()
		update1(t, db, tid, other, "b2") // commits above the scan's snapshot
		if img, err := tx.Get(tid, other); err != nil || string(img) != "b2" {
			t.Fatalf("nested Get read %q,%v: it must read at a fresh snapshot", img, err)
		}
		if err := tx.Update(tid, scanned, []byte("a2")); err != nil {
			t.Fatalf("nested Update: %v", err)
		}
		if outer.Released() || outer.TS() != at {
			t.Fatalf("the nested statements moved the scan's snapshot: released %v, ts %d → %d", outer.Released(), at, outer.TS())
		}
		if n := db.Manager().View().Len(); n != 1 {
			t.Fatalf("after the nested statements: %d announcements, want 1", n)
		}
		return true
	})
	if err != nil || calls != 1 {
		t.Fatalf("Scan = %v after %d callbacks on the scanned row", err, calls)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.Manager().View().Len(); n != 0 {
		t.Fatalf("%d announcements after commit, want 0", n)
	}
	if got, _ := get1(t, db, tid, scanned); got != "a2" {
		t.Fatalf("nested update lost: %q", got)
	}
}

func TestTransSISeesFixedSnapshot(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v1")

	tx := db.Begin(txn.TransSI)
	defer tx.Abort()
	update1(t, db, tid, rid, "v2")
	if img, err := tx.Get(tid, rid); err != nil || string(img) != "v1" {
		t.Fatalf("Trans-SI read %q,%v — must see begin-time snapshot", img, err)
	}
}

func TestDeclaredTableScopeEnforced(t *testing.T) {
	db := openTest(t, Config{})
	a := mustCreate(t, db, "A")
	b := mustCreate(t, db, "B")
	ridA := insert1(t, db, a, "a")
	ridB := insert1(t, db, b, "b")

	tx := db.Begin(txn.TransSI, a)
	defer tx.Abort()
	if _, err := tx.Get(a, ridA); err != nil {
		t.Fatalf("declared read failed: %v", err)
	}
	if _, err := tx.Get(b, ridB); !errors.Is(err, ErrOutOfScope) {
		t.Fatalf("undeclared read = %v, want ErrOutOfScope", err)
	}
	if err := tx.Update(b, ridB, []byte("x")); !errors.Is(err, ErrOutOfScope) {
		t.Fatalf("undeclared write = %v, want ErrOutOfScope", err)
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	keep := insert1(t, db, tid, "keep")

	tx := db.Begin(txn.StmtSI)
	rid, err := tx.Insert(tid, []byte("temp"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tid, keep, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	if _, err := get1(t, db, tid, rid); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
	if got, _ := get1(t, db, tid, keep); got != "keep" {
		t.Fatalf("aborted update leaked: %q", got)
	}
}

func TestWriteConflictSurfaces(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v0")
	t1 := db.Begin(txn.StmtSI)
	defer t1.Abort()
	t2 := db.Begin(txn.StmtSI)
	defer t2.Abort()
	if err := t1.Update(tid, rid, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(tid, rid, []byte("b")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("conflict = %v", err)
	}
}

func TestMultiStatementTxnSeesOwnWrites(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	tx := db.Begin(txn.StmtSI)
	rid, err := tx.Insert(tid, []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	// Note: reads run at statement snapshots, which cannot see uncommitted
	// writes; HANA resolves this through own-write visibility. We model the
	// common case: updating one's own insert is allowed by conflict rules.
	if err := tx.Update(tid, rid, []byte("mine2")); err != nil {
		t.Fatalf("update own insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := get1(t, db, tid, rid); got != "mine2" {
		t.Fatalf("committed own-write chain = %q", got)
	}
}

func TestScan(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	for i := 0; i < 10; i++ {
		insert1(t, db, tid, fmt.Sprintf("row%d", i))
	}
	db.Exec(txn.StmtSI, nil, func(tx *Tx) error { return tx.Delete(tid, 4) })

	var got []string
	err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		return tx.Scan(tid, func(rid ts.RID, img []byte) bool {
			got = append(got, string(img))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("scanned %d rows, want 9: %v", len(got), got)
	}
	if got[0] != "row0" || got[3] != "row4" {
		t.Fatalf("scan order wrong: %v", got)
	}
}

func TestCursorPinsSnapshotAcrossFetches(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	var rids []ts.RID
	for i := 0; i < 20; i++ {
		rids = append(rids, insert1(t, db, tid, fmt.Sprintf("v%d", i)))
	}
	cur, err := db.OpenCursor(tid)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	first, st, err := cur.Fetch(5)
	if err != nil || len(first) != 5 {
		t.Fatalf("fetch = %d rows, %v", len(first), err)
	}
	if st.Rows != 5 || st.Duration < 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Concurrent updates and inserts do not affect the cursor's view.
	for _, rid := range rids {
		update1(t, db, tid, rid, "changed")
	}
	insert1(t, db, tid, "late")
	var rest [][]byte
	for !cur.Exhausted() {
		rows, _, err := cur.Fetch(6)
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, rows...)
	}
	if got := len(first) + len(rest); got != 20 {
		t.Fatalf("cursor saw %d rows, want the 20 at open time", got)
	}
	for i, row := range rest {
		if want := fmt.Sprintf("v%d", i+5); string(row) != want {
			t.Fatalf("row %d = %q, want %q", i, row, want)
		}
	}
	cur.Close()
	if _, _, err := cur.Fetch(1); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("fetch after close = %v", err)
	}
}

func TestCursorTraversalGrowsWithoutGC(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	for i := 0; i < 50; i++ {
		insert1(t, db, tid, "x")
	}
	cur, err := db.OpenCursor(tid)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	_, before, _ := cur.Fetch(25)

	// Pile up versions behind the cursor.
	for round := 0; round < 5; round++ {
		for rid := ts.RID(1); rid <= 50; rid++ {
			update1(t, db, tid, rid, "y")
		}
	}
	_, after, _ := cur.Fetch(25)
	if after.Traversed <= before.Traversed {
		t.Fatalf("traversal must grow with garbage: before=%d after=%d",
			before.Traversed, after.Traversed)
	}
}

func TestStatsIndicators(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "a")
	cur, _ := db.OpenCursor(tid)
	defer cur.Close()
	for i := 0; i < 5; i++ {
		update1(t, db, tid, rid, "b")
	}
	st := db.Stats()
	if st.VersionsLive != 6 || st.VersionsCreated != 6 {
		t.Fatalf("versions live=%d created=%d", st.VersionsLive, st.VersionsCreated)
	}
	if st.ActiveSnapshots != 1 {
		t.Fatalf("active snapshots = %d", st.ActiveSnapshots)
	}
	if st.ActiveCIDRange != st.CurrentCID-cur.SnapshotTS() {
		t.Fatalf("ActiveCIDRange = %d", st.ActiveCIDRange)
	}
	if st.Statements == 0 || st.GroupListLen == 0 || st.Hash.Chains != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStatsRangeNeverWraps races Stats() against commits and short-lived
// snapshots. ActiveCIDRange is CurrentCID minus the oldest snapshot
// timestamp; read in the wrong order, a snapshot acquired between the two
// reads is newer than CurrentCID and the unsigned difference wraps.
func TestStatsRangeNeverWraps(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "a")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // advances the commit timestamp
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
				return tx.Update(tid, rid, []byte("b"))
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the only snapshots alive are fresh ones
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Manager().AcquireSnapshot(txn.KindStatement, nil).Release()
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if st := db.Stats(); st.ActiveCIDRange > st.CurrentCID {
			t.Errorf("ActiveCIDRange = %d with CurrentCID = %d: wrapped", st.ActiveCIDRange, st.CurrentCID)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestAutoGCEndToEnd(t *testing.T) {
	db := openTest(t, Config{
		GC:                 gc.Periods{GT: 2 * time.Millisecond, TG: 4 * time.Millisecond, SI: 6 * time.Millisecond},
		LongLivedThreshold: time.Millisecond,
		AutoGC:             true,
	})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v0")
	for i := 1; i <= 200; i++ {
		update1(t, db, tid, rid, fmt.Sprintf("v%d", i))
	}
	deadline := time.Now().Add(time.Second)
	for db.Space().Live() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if live := db.Space().Live(); live != 0 {
		t.Fatalf("AutoGC left %d versions", live)
	}
	if got, _ := get1(t, db, tid, rid); got != "v200" {
		t.Fatalf("read = %q", got)
	}
}

func TestConcurrentWorkloadWithGC(t *testing.T) {
	db := openTest(t, Config{
		GC:                 gc.Periods{GT: time.Millisecond, TG: 3 * time.Millisecond, SI: 5 * time.Millisecond},
		LongLivedThreshold: 2 * time.Millisecond,
		AutoGC:             true,
	})
	tid := mustCreate(t, db, "T")
	const nRecords = 16
	var rids []ts.RID
	for i := 0; i < nRecords; i++ {
		rids = append(rids, insert1(t, db, tid, "init"))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				rid := rids[(w*4+i)%nRecords]
				err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
					return tx.Update(tid, rid, []byte(fmt.Sprintf("w%d-%d", w, i)))
				})
				if err != nil && !errors.Is(err, ErrWriteConflict) {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// A reader goroutine with a long cursor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur, err := db.OpenCursor(tid)
		if err != nil {
			errCh <- err
			return
		}
		defer cur.Close()
		for !cur.Exhausted() {
			if _, _, err := cur.Fetch(2); err != nil {
				errCh <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every record still readable.
	for _, rid := range rids {
		if _, err := get1(t, db, tid, rid); err != nil {
			t.Fatalf("rid %d unreadable: %v", rid, err)
		}
	}
}

func TestReadAtAndScanCountAt(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v1")
	at1 := db.Manager().CurrentTS()
	update1(t, db, tid, rid, "v2")
	insert1(t, db, tid, "other")
	at2 := db.Manager().CurrentTS()

	if img, ok := db.ReadAt(tid, rid, at1); !ok || string(img) != "v1" {
		t.Fatalf("ReadAt(at1) = %q,%v", img, ok)
	}
	if img, ok := db.ReadAt(tid, rid, at2); !ok || string(img) != "v2" {
		t.Fatalf("ReadAt(at2) = %q,%v", img, ok)
	}
	if _, ok := db.ReadAt(999, rid, at2); ok {
		t.Fatal("ReadAt on unknown table must miss")
	}
	if n := db.ScanCountAt(tid, at1); n != 1 {
		t.Fatalf("ScanCountAt(at1) = %d", n)
	}
	if n := db.ScanCountAt(tid, at2); n != 2 {
		t.Fatalf("ScanCountAt(at2) = %d", n)
	}
	if n := db.ScanCountAt(999, at2); n != 0 {
		t.Fatal("ScanCountAt on unknown table must be 0")
	}
}

// TestPartitionLevelTableGC exercises §4.3's partition-granular extension:
// a long-lived cursor pruned to one partition must, once the table
// collector scopes it to per-partition trackers, stop blocking reclamation
// of the table's other partitions.
func TestPartitionLevelTableGC(t *testing.T) {
	db := openTest(t, Config{LongLivedThreshold: time.Nanosecond})
	tid := mustCreate(t, db, "T")
	if err := db.SetTablePartitions(tid, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.SetTablePartitions(tid, 1); err == nil {
		t.Fatal("partition count below 2 must fail")
	}
	var rids []ts.RID
	for i := 0; i < 8; i++ {
		rids = append(rids, insert1(t, db, tid, "v0"))
	}
	// Cursor pruned to partition 0 (rids 1 and 5 under round-robin).
	cur, err := db.OpenPartitionCursor(tid, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	pin := cur.SnapshotTS()

	for round := 1; round <= 5; round++ {
		for _, rid := range rids {
			update1(t, db, tid, rid, fmt.Sprintf("v%d", round))
		}
	}
	// GT is blocked (the cursor pins the union minimum).
	gt := db.GC().RunGT()
	if live := db.Space().Live(); live < 40 {
		t.Fatalf("GT must be blocked, live=%d (reclaimed %d)", live, gt.Versions)
	}
	// TG scopes the cursor to (T, partition 0) and reclaims the other
	// partitions' versions entirely.
	time.Sleep(time.Millisecond)
	st := db.GC().RunTG()
	if st.SnapshotsScoped != 1 {
		t.Fatalf("scoped %d snapshots, want 1", st.SnapshotsScoped)
	}
	if st.Versions == 0 {
		t.Fatal("TG reclaimed nothing")
	}
	// Partition 0's history must survive for the pinned cursor...
	if img, ok := db.ReadAt(tid, rids[0], pin); !ok || string(img) != "v0" {
		t.Fatalf("pinned partition-0 read = %q,%v", img, ok)
	}
	// ...while other partitions collapsed to their latest image.
	if img, ok := db.ReadAt(tid, rids[1], db.Manager().CurrentTS()); !ok || string(img) != "v5" {
		t.Fatalf("partition-1 read = %q,%v", img, ok)
	}
	ch := db.Space().HT.Get(ts.RecordKey{Table: tid, RID: rids[1]})
	if ch != nil && ch.Len() > 0 {
		t.Fatalf("partition-1 chain not reclaimed: %d versions", ch.Len())
	}
	ch0 := db.Space().HT.Get(ts.RecordKey{Table: tid, RID: rids[0]})
	if ch0 == nil || ch0.Len() < 5 {
		t.Fatal("partition-0 history must survive")
	}
	// Cursor fetch sees only partition 0's pinned rows.
	rows, _, err := cur.Fetch(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("pruned cursor returned %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if string(r) != "v0" {
			t.Fatalf("pinned row = %q", r)
		}
	}
	// After the cursor closes, everything drains.
	cur.Close()
	db.GC().RunGT()
	if live := db.Space().Live(); live != 0 {
		t.Fatalf("live after close = %d", live)
	}
}

func TestPartitionCursorValidation(t *testing.T) {
	db := openTest(t, Config{})
	tid := mustCreate(t, db, "T")
	if _, err := db.OpenPartitionCursor(tid, 0); err == nil {
		t.Fatal("partition cursor over unpartitioned table must fail")
	}
	if err := db.SetTablePartitions(tid, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenPartitionCursor(tid); err == nil {
		t.Fatal("empty partition set must fail")
	}
	if _, err := db.OpenPartitionCursor(tid, 5); err == nil {
		t.Fatal("out-of-range partition must fail")
	}
}
