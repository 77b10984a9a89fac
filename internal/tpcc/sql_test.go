package tpcc

import (
	"fmt"
	"reflect"
	"testing"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/htap"
	"hybridgc/internal/shard"
	"hybridgc/internal/sql"
)

// loadedEngine loads smallCfg into a fresh engine: one core.DB, or a shard
// cluster when shards > 1.
func loadedEngine(t *testing.T, shards int) (engine.Engine, *Driver) {
	t.Helper()
	var eng engine.Engine
	if shards > 1 {
		cl, err := shard.Open(shard.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		eng = cl
	} else {
		db, err := core.Open(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng = engine.NewSingle(db)
	}
	t.Cleanup(eng.Close)
	d, err := NewWithBackend(EngineBackend(eng), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func execSQL(t *testing.T, s *sql.Session, q string) *sql.Result {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestSQLReachesTPCC: the nine tables are SQL tables, so a session over a
// freshly loaded engine counts STOCK, on one engine and on a 2-shard cluster.
func TestSQLReachesTPCC(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, d := loadedEngine(t, shards)
			cat, err := sql.NewCatalogEngine(eng)
			if err != nil {
				t.Fatal(err)
			}
			res := execSQL(t, sql.NewSession(cat), "SELECT COUNT(*) FROM STOCK")
			if want := int64(d.cfg.Warehouses * d.cfg.Items); res.Rows[0][0].I != want {
				t.Fatalf("COUNT(*) FROM STOCK = %d, want warehouses x items = %d", res.Rows[0][0].I, want)
			}
		})
	}
}

// TestLaneMatchesRowsOnTPCC: after a fixed amount of committed TPC-C work,
// with the lanes settled, the OLAP leg's two aggregates read through the
// ORDERLINE and STOCK lanes equal the same SELECTs inside an explicit
// transaction, which the lane never serves; on one engine and on a 2-shard
// cluster.
func TestLaneMatchesRowsOnTPCC(t *testing.T) {
	queries := []struct {
		table, q string
		spec     htap.AggSpec
	}{
		{TableOrderLine, "SELECT SUM(OL_AMOUNT) FROM ORDERLINE GROUP BY OL_NUMBER",
			htap.AggSpec{Op: htap.AggSum, Col: "ol_amount", GroupBy: "ol_number"}},
		{TableStock, "SELECT MIN(S_QUANTITY) FROM STOCK GROUP BY S_W_ID",
			htap.AggSpec{Op: htap.AggMin, Col: "s_quantity", GroupBy: "s_w_id"}},
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, d := loadedEngine(t, shards)
			cat, err := sql.NewCatalogEngine(eng)
			if err != nil {
				t.Fatal(err)
			}
			m := htap.NewManager(eng, htap.Config{ChunkSlots: 64})
			if err := cat.AttachHTAP(m); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if err := cat.EnableHTAP(q.table); err != nil {
					t.Fatal(err)
				}
			}
			for w := 1; w <= d.cfg.Warehouses; w++ {
				if err := d.NewWorker(w).RunCommitted(150, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < eng.Shards(); i++ {
				eng.Shard(i).GC().Collect()
			}
			m.Migrate()

			s := sql.NewSession(cat)
			for _, q := range queries {
				tbl, err := cat.Table(q.table)
				if err != nil {
					t.Fatal(err)
				}
				if res, err := m.Aggregate(tbl.ID, q.spec); err != nil || res.ChunkRows == 0 {
					t.Fatalf("%s: the lane served no chunk rows (%+v, %v)", q.q, res, err)
				}
				lane := execSQL(t, s, q.q)
				execSQL(t, s, "BEGIN")
				rows := execSQL(t, s, q.q)
				execSQL(t, s, "COMMIT")
				if len(rows.Rows) == 0 || !reflect.DeepEqual(lane.Rows, rows.Rows) {
					t.Fatalf("%s: lane %v, rows %v", q.q, lane.Rows, rows.Rows)
				}
			}
		})
	}
}
