// SQL tour: the SQL front end over the MVCC engine — DDL, DML, indexes,
// explicit transactions under both isolation variants, and the §4.3 story
// where the compiled plan's table scope lets the table collector confine a
// long-running SQL cursor.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridgc"
	"hybridgc/internal/gc"
	"hybridgc/internal/sql"
)

func must(res *sql.Result, err error) *sql.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	db := hybridgc.MustOpen(hybridgc.Config{})
	defer db.Close()
	cat, err := sql.NewCatalog(db)
	if err != nil {
		log.Fatal(err)
	}
	s := sql.NewSession(cat)

	must(s.Execute("CREATE TABLE orders (id INT, region TEXT, amount INT)"))
	must(s.Execute("CREATE TABLE audit (id INT, note TEXT)"))
	must(s.Execute("CREATE INDEX ON orders (region)"))
	regions := []string{"EMEA", "APJ", "AMER"}
	for i := 1; i <= 12; i++ {
		must(s.Execute(fmt.Sprintf("INSERT INTO orders VALUES (%d, '%s', %d)", i, regions[i%3], i*10)))
	}
	res := must(s.Execute("SELECT SUM(amount) FROM orders WHERE region = 'EMEA'"))
	fmt.Printf("SUM(amount) for EMEA (via index): %s\n", res.Rows[0][0])

	// Explicit Trans-SI transaction: one snapshot for every read.
	must(s.Execute("BEGIN SNAPSHOT"))
	before := must(s.Execute("SELECT COUNT(*) FROM orders")).Rows[0][0].I
	writer := sql.NewSession(cat)
	must(writer.Execute("INSERT INTO orders VALUES (13, 'EMEA', 130)"))
	after := must(s.Execute("SELECT COUNT(*) FROM orders")).Rows[0][0].I
	must(s.Execute("COMMIT"))
	fmt.Printf("Trans-SI reader saw %d rows before and %d after a concurrent insert (same snapshot)\n",
		before, after)

	// The §4.3 hook: a long-running SQL cursor's snapshot takes its scope
	// from the compiled plan, so the table collector can confine it.
	qc, err := s.OpenQueryCursor("SELECT id FROM orders WHERE region = 'APJ'")
	if err != nil {
		log.Fatal(err)
	}
	defer qc.Close()
	fmt.Printf("\ncursor open on ORDERS at snapshot %d (scope from the compiled plan)\n", qc.SnapshotTS())
	for i := 0; i < 300; i++ {
		must(s.Execute(fmt.Sprintf("UPDATE audit SET note = 'n%d' WHERE id = 1", i)))
		if i == 0 {
			must(s.Execute("INSERT INTO audit VALUES (1, 'n0')"))
		}
	}
	gt := gc.NewGroupTimestamp(db.Manager())
	gt.Collect()
	fmt.Printf("GT with the cursor pinned globally: %d versions still live\n", db.Space().Live())
	tg := gc.NewTableGC(db.Manager(), time.Nanosecond)
	time.Sleep(time.Millisecond)
	st := tg.Collect()
	fmt.Printf("TG scopes the cursor to ORDERS and reclaims %d versions; %d remain\n",
		st.Versions, db.Space().Live())
	rows, _, _ := qc.Fetch(100)
	fmt.Printf("cursor still streams its snapshot: %d APJ rows\n", len(rows))
}
