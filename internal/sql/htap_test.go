package sql

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/htap"
	"hybridgc/internal/shard"
)

// laneSession builds a session plus an attached HTAP manager over the same
// engine, mirroring how the server wires the two together.
func laneSession(t *testing.T) (*Session, *htap.Manager) {
	t.Helper()
	s := newSession(t)
	m := htap.NewManager(s.cat.Engine(), htap.Config{ChunkSlots: 8})
	if err := s.cat.AttachHTAP(m); err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestAggregatesRowPath(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE pay (amount INT, region TEXT)")
	for _, q := range []string{
		"INSERT INTO pay VALUES (7, 'east')",
		"INSERT INTO pay VALUES (3, 'west')",
		"INSERT INTO pay VALUES (5, 'east')",
	} {
		mustExec(t, s, q)
	}
	cases := []struct {
		q    string
		want []string
	}{
		{"SELECT SUM(amount) FROM pay", []string{"15"}},
		{"SELECT MIN(amount) FROM pay", []string{"3"}},
		{"SELECT MAX(amount) FROM pay", []string{"7"}},
		{"SELECT COUNT(*) FROM pay", []string{"3"}},
		{"SELECT SUM(amount) FROM pay GROUP BY region", []string{"east|12", "west|3"}},
		{"SELECT MAX(amount) FROM pay WHERE region = 'east' GROUP BY region", []string{"east|7"}},
		{"SELECT COUNT(*) FROM pay GROUP BY region", []string{"east|2", "west|1"}},
	}
	for _, c := range cases {
		if got := rowsToStrings(mustExec(t, s, c.q)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v want %v", c.q, got, c.want)
		}
	}
	if _, err := s.Execute("SELECT SUM(region) FROM pay"); err == nil {
		t.Fatalf("SUM over TEXT column should fail")
	}
}

func TestLaneFastPathMatchesRowPath(t *testing.T) {
	s, m := laneSession(t)
	mustExec(t, s, "CREATE TABLE pay (amount INT, region TEXT)")
	if err := s.cat.EnableHTAP("pay"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		region := "'east'"
		if i%2 == 1 {
			region = "'west'"
		}
		mustExec(t, s, "INSERT INTO pay VALUES (10, "+region+")")
	}
	// Settle and migrate so the lane actually serves columnar batches.
	db := s.cat.DB()
	deadline := time.Now().Add(5 * time.Second)
	ti, _ := s.cat.Table("pay")
	for m.Store(0).Stats()[0].DeltaRows > 0 || m.Store(0).Stats()[0].DirtyRows > 0 {
		db.GC().Collect()
		m.Migrate()
		if time.Now().After(deadline) {
			t.Fatalf("lane never settled: %+v", m.Store(0).Stats())
		}
	}
	if !m.Enabled(ti.ID) {
		t.Fatalf("lane not enabled for table %d", ti.ID)
	}
	queries := []string{
		"SELECT SUM(amount) /* aggregate */ FROM pay",
		"SELECT COUNT(*) FROM pay",
		"SELECT MIN(amount) FROM pay",
		"SELECT SUM(amount) FROM pay GROUP BY region",
		"SELECT MAX(amount) FROM pay GROUP BY region",
		"SELECT COUNT(*) FROM pay GROUP BY amount",
	}
	for _, q := range queries {
		fast := mustExec(t, s, q)
		// Detach to force the row path, then compare the typed rows exactly:
		// a text group key must come back a TEXT datum, an int key an INT.
		s.cat.AttachHTAP(nil)
		slow := mustExec(t, s, q)
		if err := s.cat.AttachHTAP(m); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Rows, slow.Rows) {
			t.Errorf("%s: lane %+v != row %+v", q, fast.Rows, slow.Rows)
		}
	}
	grouped := mustExec(t, s, "SELECT SUM(amount) FROM pay GROUP BY region")
	if want := [][]Datum{{TextD("east"), IntD(200)}, {TextD("west"), IntD(200)}}; !reflect.DeepEqual(grouped.Rows, want) {
		t.Errorf("text GROUP BY through the lane: %+v, want %+v", grouped.Rows, want)
	}
	// WHERE / ORDER BY / LIMIT and explicit transactions stay on the row path.
	if got := rowsToStrings(mustExec(t, s, "SELECT SUM(amount) FROM pay WHERE region = 'east'")); got[0] != "200" {
		t.Errorf("filtered sum: %v", got)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO pay VALUES (1000, 'east')")
	if got := rowsToStrings(mustExec(t, s, "SELECT SUM(amount) FROM pay")); got[0] != "1400" {
		t.Errorf("in-txn sum should see own write: %v", got)
	}
	mustExec(t, s, "ROLLBACK")

	// The rolled-back insert still allocated a RID; settle it away so the
	// view shows a fully-migrated lane (its chunk slot ends up absent).
	for m.Store(0).Stats()[0].DeltaRows > 0 {
		db.GC().Collect()
		m.Migrate()
		if time.Now().After(deadline) {
			t.Fatalf("rolled-back RID never settled: %+v", m.Store(0).Stats())
		}
	}

	// The monitoring view reflects the migrated lane.
	res := mustExec(t, s, "SELECT name, chunk_rows, delta_rows FROM m_htap")
	if got := rowsToStrings(res); len(got) != 1 || got[0] != "pay|40|0" {
		t.Errorf("m_htap: %v", got)
	}
}

// TestLaneSurvivesRestart: a lane is a row of the lane table, so it comes
// back with the data, on every shard alike. On a 2-shard persistent cluster:
// EnableHTAP, checkpoint, write on, close, reopen and AttachHTAP; the lane is
// on on both shards and the migrator rebuilds chunks that serve an aggregate
// over every recovered row.
func TestLaneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Catalog, *htap.Manager) {
		t.Helper()
		eng, err := shard.Open(shard.Config{Shards: 2, Configure: func(int) core.Config {
			return core.Config{Persistence: &core.Persistence{Dir: dir}}
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		cat, err := NewCatalogEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		m := htap.NewManager(eng, htap.Config{ChunkSlots: 8})
		if err := cat.AttachHTAP(m); err != nil {
			t.Fatal(err)
		}
		return cat, m
	}

	cat, _ := open()
	s := NewSession(cat)
	mustExec(t, s, "CREATE TABLE pay (amount INT, region TEXT)")
	for i := 1; i <= 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pay VALUES (%d, 'east')", i))
	}
	if err := cat.EnableHTAP("pay"); err != nil {
		t.Fatal(err)
	}
	// The lane row must outlive the checkpoint and the segments it prunes;
	// a row after it comes back from the log.
	for i := 0; i < cat.Engine().Shards(); i++ {
		if err := cat.Engine().Shard(i).Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "INSERT INTO pay VALUES (1000, 'east')")
	cat.Engine().Close()

	cat, m := open()
	ti, err := cat.Table("pay")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Shards(); i++ {
		if !m.Store(i).Enabled(ti.ID) {
			t.Fatalf("shard %d: lane not re-enabled after restart", i)
		}
	}
	for i := 0; i < cat.Engine().Shards(); i++ {
		cat.Engine().Shard(i).GC().Collect()
	}
	m.Migrate()
	res, err := m.Aggregate(ti.ID, htap.AggSpec{Op: htap.AggSum, Col: "amount"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkRows != 21 || res.RowRows != 0 {
		t.Fatalf("after restart the lane served %d rows from chunks and %d from rows, want 21 and 0",
			res.ChunkRows, res.RowRows)
	}
	if got := rowsToStrings(mustExec(t, NewSession(cat), "SELECT SUM(amount) FROM pay")); got[0] != "1210" {
		t.Fatalf("SUM after restart: %v, want 1210", got)
	}
}
