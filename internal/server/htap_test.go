package server

import (
	"fmt"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/htap"
)

// TestHTAPVerbsLoopback drives the OLAP lane end to end over the wire:
// enable via OpHTAPEnable, migrate, aggregate through OpExec, and read the
// STATS HTAP trailer.
func TestHTAPVerbsLoopback(t *testing.T) {
	srv, db, addr := newTestServer(t, Config{})
	m := htap.NewManager(srv.cat.Engine(), htap.Config{ChunkSlots: 8})
	if err := srv.Catalog().AttachHTAP(m); err != nil {
		t.Fatal(err)
	}

	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.EnableHTAP("sales"); err == nil {
		t.Fatalf("EnableHTAP before CREATE TABLE should fail")
	}
	if _, err := cl.Exec("CREATE TABLE sales (amount INT, region TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := cl.EnableHTAP("sales"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		region := "east"
		if i%3 == 0 {
			region = "west"
		}
		if _, err := cl.Exec(fmt.Sprintf("INSERT INTO sales VALUES (%d, '%s')", i, region)); err != nil {
			t.Fatal(err)
		}
	}

	// Aggregates are correct before migration (row path)...
	res, err := cl.Exec("SELECT SUM(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 435 {
		t.Fatalf("row-path sum: %+v", res.Rows)
	}

	// ...and after, served from chunks.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats()[0].DeltaRows > 0 {
		db.GC().Collect()
		m.Migrate()
		if time.Now().After(deadline) {
			t.Fatalf("lane never settled: %+v", m.Stats())
		}
	}
	res, err = cl.Exec("SELECT SUM(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 435 {
		t.Fatalf("lane sum: %+v", res.Rows)
	}
	res, err = cl.Exec("SELECT COUNT(*) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].S != "east" || res.Rows[0][1].I != 20 ||
		res.Rows[1][0].S != "west" || res.Rows[1][1].I != 10 {
		t.Fatalf("grouped count: %+v", res.Rows)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.HTAP) != 1 {
		t.Fatalf("stats HTAP trailer: %+v", st.HTAP)
	}
	h := st.HTAP[0]
	if h.Name != "sales" || h.ChunkRows != 30 || h.DeltaRows != 0 || h.MigratedRows < 30 {
		t.Fatalf("htap stat: %+v", h)
	}

	// An aggregate over a column the table lacks is rejected cleanly.
	if _, err := cl.Exec("SELECT SUM(nope) FROM sales"); err == nil {
		t.Fatalf("aggregate over an unknown column should fail")
	}
}
