// Mixed row/column stores (§2.1, §4.3): one unified transaction manager
// spans the row store (the engine's table space) and the column lane
// (dictionary-encoded, immutable chunks), sharing commit timestamps,
// snapshots, the version space and the garbage collectors. The demo shows
// (1) transactions writing a row table and a lane-enabled fact table
// atomically, (2) the background migrator shipping committed versions past
// the GC horizon into column chunks — reclaiming their version-chain
// entries — with vectorized aggregates served from the chunks, (3) the
// visibility guard: a pinned snapshot keeps hot rows in the row store until
// it releases, and (4) §4.3's argument: a long OLAP snapshot over FACTS,
// once scoped by the table collector, stops blocking the row tables.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridgc"
	"hybridgc/internal/colstore"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/txn"
)

var schema = colstore.Schema{
	{Name: "region", Type: colstore.String},
	{Name: "amount", Type: colstore.Int64},
}

func encode(region string, amount int64) []byte {
	img, err := colstore.EncodeRow(schema, colstore.Row{colstore.StrV(region), colstore.IntV(amount)})
	if err != nil {
		log.Fatal(err)
	}
	return img
}

func main() {
	db := hybridgc.MustOpen(hybridgc.Config{})
	defer db.Close()
	m := db.Manager()

	// Row store: an ORDERS table. Column lane: a FACTS table whose committed
	// versions the migrator ships into dictionary-encoded chunks.
	orders, err := db.CreateTable("ORDERS")
	if err != nil {
		log.Fatal(err)
	}
	facts, err := db.CreateTable("FACTS")
	if err != nil {
		log.Fatal(err)
	}
	store, err := htap.NewStore(db, htap.Config{ChunkSlots: 16})
	if err != nil {
		log.Fatal(err)
	}
	if err := store.EnableTable(facts, schema); err != nil {
		log.Fatal(err)
	}

	// One transaction writes both tables; the shared group commit gives both
	// writes the same CID.
	regions := []string{"EMEA", "APJ", "AMER"}
	for i := 0; i < 30; i++ {
		err := db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
			if _, err := tx.Insert(orders, []byte(fmt.Sprintf("order-%d", i))); err != nil {
				return err
			}
			_, err := tx.Insert(facts, encode(regions[i%3], int64(10*(i+1))))
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	before := db.Space().Live()
	fmt.Printf("30 cross-store transactions committed; version space holds %d versions\n", before)
	fmt.Printf("column lane: %+v (everything is still row-store delta)\n", laneStat(store))

	// GC settles the versions behind the horizon; the migrator then ships
	// them into chunks and unversions their table-space images.
	db.GC().Collect()
	migrated := store.Migrate()
	ls := laneStat(store)
	if migrated != 30 || ls.ChunkRows != 30 || ls.DeltaRows != 0 {
		log.Fatalf("migration did not settle the lane: migrated=%d stats=%+v", migrated, ls)
	}
	if after := db.Space().Live(); after >= before {
		log.Fatalf("no version reclamation: %d -> %d live versions", before, after)
	}
	fmt.Printf("after GC + migrate: %d live versions; %d rows in %d chunks\n",
		db.Space().Live(), ls.ChunkRows, ls.Chunks)

	// Vectorized aggregates straight off the chunks.
	sum, err := store.Aggregate(facts, htap.AggSpec{Op: htap.AggSum, Col: "amount"})
	if err != nil {
		log.Fatal(err)
	}
	if sum.RowRows != 0 || sum.Groups[0].Sum != 4650 {
		log.Fatalf("lane SUM wrong or not columnar: %+v", sum)
	}
	fmt.Printf("SUM(amount) over the chunks: %d (%d rows from vectors, %d from row reads)\n",
		sum.Groups[0].Sum, sum.ChunkRows, sum.RowRows)
	grouped, err := store.Aggregate(facts, htap.AggSpec{Op: htap.AggCount, GroupBy: "region"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("COUNT(*) GROUP BY region: %d groups over a %d-entry dictionary\n\n",
		len(grouped.Groups), len(regions))

	// The visibility guard: while a snapshot pins the horizon, an updated
	// fact row cannot settle, so the migrator leaves it to the row path.
	pin := m.AcquireSnapshot(txn.KindCursor, []hybridgc.TableID{facts})
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		return tx.Update(facts, 1, encode("EMEA", 99))
	})
	db.GC().Collect()
	store.Migrate()
	if ls := laneStat(store); ls.DirtyRows != 1 {
		log.Fatalf("pinned snapshot should hold the updated row dirty: %+v", ls)
	}
	fmt.Printf("pinned snapshot %d holds the updated row in the row store (dirty=1)\n", pin.TS())
	pin.Release()
	db.GC().Collect()
	store.Migrate()
	if ls := laneStat(store); ls.DirtyRows != 0 {
		log.Fatalf("release should let the row migrate: %+v", ls)
	}
	fmt.Printf("snapshot released: the row settled back into its chunk\n\n")

	// §4.3's scenario: a long OLAP snapshot over FACTS blocks nothing but
	// FACTS once the table collector scopes it.
	olap := m.AcquireSnapshot(txn.KindCursor, []hybridgc.TableID{facts})
	defer olap.Release()
	var rid hybridgc.RID
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		var err error
		rid, err = tx.Insert(orders, []byte("hot"))
		return err
	})
	for i := 0; i < 200; i++ {
		db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
			return tx.Update(orders, rid, []byte(fmt.Sprintf("hot-%d", i)))
		})
	}
	gt := db.GC().RunGT()
	fmt.Printf("GT with the OLAP snapshot pinned globally: reclaimed %d of %d row versions\n",
		gt.Versions, db.Space().Live()+gt.Versions)
	tg := gc.NewTableGC(m, time.Nanosecond)
	time.Sleep(time.Millisecond)
	st := tg.Collect()
	if st.Versions == 0 {
		log.Fatal("TG should reclaim the ORDERS churn the scoped snapshot does not pin")
	}
	fmt.Printf("TG scopes the snapshot to FACTS and reclaims %d versions; %d remain\n",
		st.Versions, db.Space().Live())
}

// laneStat returns FACTS's lane statistics (the store has exactly one lane).
func laneStat(store *htap.Store) htap.LaneStats {
	sts := store.Stats()
	if len(sts) != 1 {
		log.Fatalf("expected one lane, have %d", len(sts))
	}
	return sts[0]
}
