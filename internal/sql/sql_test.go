package sql

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	cat, err := NewCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(cat)
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func rowsToStrings(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT * FROM t",
		"CREATE TABLE t (a FLOAT)",
		"INSERT INTO t VALUES (1",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t LIMIT 'x'",
		"CREATE INDEX t (a)",
		"CREATE INDEX ON t (a)",
		"CREATE ORDERED INDEX ON t (a)",
		"SELECT * FROM t extra garbage",
		"INSERT INTO t VALUES ('unterminated)",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseShapes(t *testing.T) {
	st, err := Parse("SELECT name, balance FROM accounts WHERE id = 7 AND name = 'bob' ORDER BY balance DESC LIMIT 3;")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if sel.Table != "accounts" || len(sel.Columns) != 2 || len(sel.Where) != 2 {
		t.Fatalf("parsed %+v", sel)
	}
	if sel.Order == nil || !sel.Order.Desc || sel.Limit != 3 {
		t.Fatalf("order/limit: %+v", sel)
	}
	if sel.Where[1].Value.S != "bob" {
		t.Fatalf("where: %+v", sel.Where)
	}
	st, err = Parse("BEGIN TRANSACTION SNAPSHOT")
	if err != nil || !st.(*BeginStmt).TransSI {
		t.Fatalf("begin snapshot: %+v, %v", st, err)
	}
	st, err = Parse("SELECT SUM(balance) FROM accounts")
	if err != nil || st.(*SelectStmt).Aggregate != "SUM" || st.(*SelectStmt).AggColumn != "balance" {
		t.Fatalf("sum: %+v, %v", st, err)
	}
	st, err = Parse("SELECT MAX(balance) /* aggregate */ FROM accounts GROUP BY city")
	if err != nil || st.(*SelectStmt).Aggregate != "MAX" || st.(*SelectStmt).GroupBy != "city" {
		t.Fatalf("max group by: %+v, %v", st, err)
	}
	if _, err = Parse("SELECT * FROM accounts GROUP BY city"); err == nil {
		t.Fatalf("GROUP BY without aggregate should fail")
	}
}

func TestStringLiteralEscaping(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES ('it''s')")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*InsertStmt).Values[0].S; got != "it's" {
		t.Fatalf("escaped literal = %q", got)
	}
}

func TestCRUDEndToEnd(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE accounts (id INT, name TEXT, balance INT)")
	mustExec(t, s, "INSERT INTO accounts VALUES (1, 'alice', 100)")
	mustExec(t, s, "INSERT INTO accounts VALUES (2, 'bob', 250)")
	mustExec(t, s, "INSERT INTO accounts VALUES (3, 'carol', 50)")

	res := mustExec(t, s, "SELECT * FROM accounts WHERE id = 2")
	if got := rowsToStrings(res); !reflect.DeepEqual(got, []string{"2|bob|250"}) {
		t.Fatalf("point select = %v", got)
	}
	res = mustExec(t, s, "SELECT name FROM accounts ORDER BY balance DESC")
	if got := rowsToStrings(res); !reflect.DeepEqual(got, []string{"bob", "alice", "carol"}) {
		t.Fatalf("order by = %v", got)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT SUM(balance) FROM accounts")
	if res.Rows[0][0].I != 400 {
		t.Fatalf("sum = %v", res.Rows)
	}
	res = mustExec(t, s, "UPDATE accounts SET balance = 175 WHERE name = 'bob'")
	if res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	res = mustExec(t, s, "DELETE FROM accounts WHERE id = 3")
	if res.Affected != 1 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT SUM(balance) FROM accounts")
	if res.Rows[0][0].I != 275 {
		t.Fatalf("sum after update+delete = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT * FROM accounts LIMIT 1")
	if len(res.Rows) != 1 {
		t.Fatalf("limit = %v", res.Rows)
	}
}

func TestTypeAndNameErrors(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT, b TEXT)")
	cases := []string{
		"INSERT INTO t VALUES (1)",               // arity
		"INSERT INTO t VALUES ('x', 'y')",        // type
		"SELECT * FROM missing",                  // unknown table
		"SELECT nope FROM t",                     // unknown column
		"SELECT * FROM t WHERE nope = 1",         // unknown where column
		"SELECT SUM(b) FROM t",                   // sum over text
		"UPDATE t SET a = 'text' WHERE a = 1",    // set type
		"UPDATE t SET nope = 1",                  // unknown set column
		"SELECT * FROM t WHERE a = 'not-an-int'", // predicate type
	}
	for _, q := range cases {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("%s: succeeded, want error", q)
		}
	}
	if _, err := s.Execute("CREATE TABLE t (x INT)"); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := s.Execute("CREATE TABLE u (x INT, x TEXT)"); err == nil {
		t.Error("duplicate column must fail")
	}
}

func TestExplicitTransactions(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	mustExec(t, s, "INSERT INTO t VALUES (2)")
	// A second session must not see uncommitted rows.
	s2 := NewSession(s.cat)
	if res := mustExec(t, s2, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 0 {
		t.Fatalf("dirty read: %v", res.Rows)
	}
	mustExec(t, s, "COMMIT")
	if res := mustExec(t, s2, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 2 {
		t.Fatalf("post-commit count: %v", res.Rows)
	}
	// Rollback undoes everything.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (3)")
	mustExec(t, s, "ROLLBACK")
	if res := mustExec(t, s2, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 2 {
		t.Fatalf("rollback leaked: %v", res.Rows)
	}
	// Control-flow errors.
	if _, err := s.Execute("COMMIT"); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("commit without begin = %v", err)
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Execute("BEGIN"); !errors.Is(err, ErrInTransaction) {
		t.Fatalf("nested begin = %v", err)
	}
	mustExec(t, s, "ROLLBACK")
}

func TestTransSISnapshotSemantics(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1)")

	reader := NewSession(s.cat)
	mustExec(t, reader, "BEGIN SNAPSHOT") // Trans-SI
	if res := mustExec(t, reader, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 1 {
		t.Fatalf("initial read: %v", res.Rows)
	}
	mustExec(t, s, "INSERT INTO t VALUES (2)")
	// The Trans-SI reader keeps its begin-time snapshot...
	if res := mustExec(t, reader, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 1 {
		t.Fatalf("Trans-SI read moved: %v", res.Rows)
	}
	mustExec(t, reader, "COMMIT")
	// ...and a plain Stmt-SI transaction sees the latest per statement.
	mustExec(t, reader, "BEGIN")
	if res := mustExec(t, reader, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 2 {
		t.Fatalf("Stmt-SI read: %v", res.Rows)
	}
	mustExec(t, reader, "ROLLBACK")
}

func TestPlanScopeFeedsTableGC(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE hot (a INT)")
	mustExec(t, s, "CREATE TABLE cold (a INT)")
	mustExec(t, s, "INSERT INTO hot VALUES (1)")
	mustExec(t, s, "INSERT INTO cold VALUES (1)")

	stmt, _ := Parse("SELECT * FROM cold")
	scope, err := s.cat.PlanScope(stmt)
	if err != nil || len(scope) != 1 {
		t.Fatalf("PlanScope = %v, %v", scope, err)
	}
	coldInfo, _ := s.cat.Table("cold")
	if scope[0] != coldInfo.ID {
		t.Fatalf("scope = %v, want %d", scope, coldInfo.ID)
	}

	// A long-lived SQL cursor over COLD: its snapshot is scoped from the
	// compiled plan, so the table collector confines it and HOT's garbage
	// stays collectable.
	qc, err := s.OpenQueryCursor("SELECT a FROM cold")
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE hot SET a = %d", i))
	}
	db := s.cat.DB()
	gt := gc.NewGroupTimestamp(db.Manager())
	gt.Collect()
	if db.Space().Live() < 50 {
		t.Fatalf("GT should be blocked by the cursor, live=%d", db.Space().Live())
	}
	tg := gc.NewTableGC(db.Manager(), time.Nanosecond)
	time.Sleep(time.Millisecond)
	st := tg.Collect()
	if st.SnapshotsScoped != 1 || st.Versions == 0 {
		t.Fatalf("TG did not confine the SQL cursor: %s", st)
	}
	// The cursor still reads its snapshot.
	rows, _, err := qc.Fetch(10)
	if err != nil || len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("cursor fetch = %v, %v", rows, err)
	}
}

func TestQueryCursorFilterAndProjection(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE ev (kind TEXT, n INT)")
	for i := 0; i < 30; i++ {
		kind := "even"
		if i%2 == 1 {
			kind = "odd"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO ev VALUES ('%s', %d)", kind, i))
	}
	qc, err := s.OpenQueryCursor("SELECT n FROM ev WHERE kind = 'odd'")
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if got := qc.Columns(); !reflect.DeepEqual(got, []string{"n"}) {
		t.Fatalf("columns = %v", got)
	}
	var all []int64
	for !qc.Exhausted() {
		rows, st, err := qc.Fetch(4)
		if err != nil {
			t.Fatal(err)
		}
		if st.Traversed == 0 && len(rows) > 0 {
			t.Fatal("fetch stats missing traversal counts")
		}
		for _, r := range rows {
			all = append(all, r[0].I)
		}
	}
	if len(all) != 15 || all[0] != 1 || all[14] != 29 {
		t.Fatalf("cursor rows = %v", all)
	}
	// Cursors reject unsupported shapes.
	if _, err := s.OpenQueryCursor("SELECT COUNT(*) FROM ev"); err == nil {
		t.Fatal("aggregate cursor must fail")
	}
	if _, err := s.OpenQueryCursor("SELECT n FROM ev ORDER BY n"); err == nil {
		t.Fatal("ordered cursor must fail")
	}
	if _, err := s.OpenQueryCursor("INSERT INTO ev VALUES ('x', 1)"); err == nil {
		t.Fatal("non-select cursor must fail")
	}
}

func TestSchemaSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.DB {
		db, err := core.Open(core.Config{
			Persistence: &core.Persistence{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	cat, err := NewCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cat)
	mustExec(t, s, "CREATE TABLE people (name TEXT, age INT)")
	mustExec(t, s, "INSERT INTO people VALUES ('ada', 36)")
	db.Close()

	db2 := open()
	defer db2.Close()
	cat2, err := NewCatalog(db2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(cat2)
	res := mustExec(t, s2, "SELECT name, age FROM people")
	if got := rowsToStrings(res); !reflect.DeepEqual(got, []string{"ada|36"}) {
		t.Fatalf("recovered rows = %v", got)
	}
	mustExec(t, s2, "INSERT INTO people VALUES ('grace', 45)")
	if res := mustExec(t, s2, "SELECT COUNT(*) FROM people"); res.Rows[0][0].I != 2 {
		t.Fatalf("post-recovery insert: %v", res.Rows)
	}
}

func TestWriteConflictSurfacesThroughSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	s2 := NewSession(s.cat)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET a = 2")
	if _, err := s2.Execute("UPDATE t SET a = 3"); !errors.Is(err, core.ErrWriteConflict) {
		t.Fatalf("conflict = %v", err)
	}
	mustExec(t, s, "COMMIT")
	if _, err := s2.Execute("UPDATE t SET a = 3"); err != nil {
		t.Fatalf("post-commit update: %v", err)
	}
}

func TestMonitoringViews(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	mustExec(t, s, "INSERT INTO t VALUES (2)")

	// 2 user rows + 1 schema row in the meta table.
	res := mustExec(t, s, "SELECT value FROM m_version_space WHERE metric = 'versions_live'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("versions_live = %v", res.Rows)
	}
	// A held cursor appears in m_snapshots.
	qc, err := s.OpenQueryCursor("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	res = mustExec(t, s, "SELECT COUNT(*) FROM m_snapshots WHERE kind = 'cursor'")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("m_snapshots cursor count = %v", res.Rows)
	}
	// GC totals land in m_gc after a hybrid pass.
	s.cat.DB().GC().Collect()
	res = mustExec(t, s, "SELECT reclaimed FROM m_gc ORDER BY reclaimed DESC LIMIT 1")
	if len(res.Rows) != 1 {
		t.Fatalf("m_gc rows = %v", res.Rows)
	}
	// m_tables lists user tables including the schema meta table.
	res = mustExec(t, s, "SELECT COUNT(*) FROM m_tables WHERE name = 't'")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("m_tables = %v", res.Rows)
	}
	// Error paths: bad column, DML against a view.
	if _, err := s.Execute("SELECT nope FROM m_gc"); err == nil {
		t.Fatal("bad view column must fail")
	}
	if _, err := s.Execute("SELECT * FROM m_gc WHERE reclaimed = 'x'"); err == nil {
		t.Fatal("view predicate type mismatch must fail")
	}
	if _, err := s.Execute("INSERT INTO m_gc VALUES ('x', 1, 2)"); err == nil {
		t.Fatal("DML against a view must fail")
	}
	// A user table shadows the view name.
	mustExec(t, s, "CREATE TABLE m_gc (x INT)")
	mustExec(t, s, "INSERT INTO m_gc VALUES (7)")
	res = mustExec(t, s, "SELECT x FROM m_gc")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("shadowed view read = %v", res.Rows)
	}
}

func TestComparisonPredicates(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE n (v INT, name TEXT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO n VALUES (%d, 'row%02d')", i, i))
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM n WHERE v > 7")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("v > 7 count = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM n WHERE v < 4")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("v < 4 count = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT v FROM n WHERE v > 3 AND v < 6 ORDER BY v")
	if got := rowsToStrings(res); !reflect.DeepEqual(got, []string{"4", "5"}) {
		t.Fatalf("range = %v", got)
	}
	// Text comparisons are bytewise.
	res = mustExec(t, s, "SELECT COUNT(*) FROM n WHERE name < 'row03'")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("text < count = %v", res.Rows)
	}
	// Equality and range conditions mix in one chain.
	res = mustExec(t, s, "SELECT name FROM n WHERE v = 5 AND name > 'row00'")
	if got := rowsToStrings(res); !reflect.DeepEqual(got, []string{"row05"}) {
		t.Fatalf("mixed predicate = %v", got)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM n WHERE v > 0")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("range scan = %v", res.Rows)
	}
	// Negative literals parse in predicates.
	res = mustExec(t, s, "SELECT COUNT(*) FROM n WHERE v > -1")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("negative literal = %v", res.Rows)
	}
}

func TestRegionsView(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	res := mustExec(t, s, "SELECT region, versions FROM m_gc_regions ORDER BY region")
	if len(res.Rows) != 3 || res.Rows[0][0].S != "A" {
		t.Fatalf("m_gc_regions = %v", res.Rows)
	}
	var total int64
	for _, row := range res.Rows {
		total += row[1].I
	}
	live := mustExec(t, s, "SELECT value FROM m_version_space WHERE metric = 'versions_live'").Rows[0][0].I
	if total != live {
		t.Fatalf("regions total %d != live %d", total, live)
	}
}

// TestUnreadableSchemaRowFailsLoudly: a schema row that does not decode is an
// error naming its RID, both when a catalog opens over it and when a catalog
// built before the damage refreshes, never a table that silently goes
// missing from SQL.
func TestUnreadableSchemaRowFailsLoudly(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE kv (k INT)")
	db := s.cat.DB()
	var rid ts.RID
	err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		err := tx.Scan(s.cat.metaID, func(r ts.RID, _ []byte) bool { rid = r; return false })
		if err != nil {
			return err
		}
		return tx.Update(s.cat.metaID, rid, []byte{0xff})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s row %d", metaTable, rid)
	if _, err := NewCatalog(db); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("catalog over a doctored schema row: %v, want an error naming %q", err, want)
	}
	if _, err := s.cat.Table("missing"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("refresh over a doctored schema row: %v, want an error naming %q", err, want)
	}
}
