// Taxonomy tour (Figure 3): build one synthetic version history and run all
// four garbage collector quadrants — ST, GT (timestamp × single/group) and
// SI, GI (interval × single/group) — plus TG, showing what each one can and
// cannot reclaim on identical input.
package main

import (
	"fmt"
	"log"

	"hybridgc"
	"hybridgc/internal/gc"
	"hybridgc/internal/txn"
)

// buildHistory creates two tables, pins an old cursor over one of them, and
// piles updates onto both; it returns the database and the open snapshots.
func buildHistory() (*hybridgc.DB, func()) {
	db := hybridgc.MustOpen(hybridgc.Config{})
	hot, err := db.CreateTable("HOT")
	if err != nil {
		log.Fatal(err)
	}
	cold, _ := db.CreateTable("COLD")
	var hotRIDs, coldRIDs []hybridgc.RID
	for i := 0; i < 8; i++ {
		db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
			r1, err := tx.Insert(hot, []byte("h0"))
			if err != nil {
				return err
			}
			r2, err := tx.Insert(cold, []byte("c0"))
			hotRIDs = append(hotRIDs, r1)
			coldRIDs = append(coldRIDs, r2)
			return err
		})
	}
	// A long-lived cursor over COLD only.
	curs, err := db.OpenCursor(cold)
	if err != nil {
		log.Fatal(err)
	}
	for round := 1; round <= 6; round++ {
		for i := range hotRIDs {
			db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
				if err := tx.Update(hot, hotRIDs[i], []byte(fmt.Sprintf("h%d", round))); err != nil {
					return err
				}
				return tx.Update(cold, coldRIDs[i], []byte(fmt.Sprintf("c%d", round)))
			})
		}
	}
	// A current statement snapshot (ongoing OLTP) for the interval window.
	now := db.Manager().AcquireSnapshot(txn.KindStatement, nil)
	return db, func() { now.Release(); curs.Close(); db.Close() }
}

func main() {
	fmt.Println("Figure 3 taxonomy on one synthetic history:")
	fmt.Println("16 records x (1 insert + 6 updates) = 112 versions;")
	fmt.Println("a long cursor pins COLD near the start; OLTP continues.")
	fmt.Println()
	type entry struct {
		name  string
		make  func(*hybridgc.DB) hybridgc.Collector
		blurb string
	}
	entries := []entry{
		{"ST", func(db *hybridgc.DB) hybridgc.Collector { return gc.NewSingleTimestamp(db.Manager()) },
			"conventional: per-chain scan vs global min timestamp"},
		{"GT", func(db *hybridgc.DB) hybridgc.Collector { return gc.NewGroupTimestamp(db.Manager()) },
			"group list scan vs global min timestamp (HANA's global GC)"},
		{"SI", func(db *hybridgc.DB) hybridgc.Collector { return gc.NewInterval(db.Manager()) },
			"merge-based visible-interval intersection (Algorithm 1)"},
		{"GI", func(db *hybridgc.DB) hybridgc.Collector { return gc.NewGroupInterval(db.Manager()) },
			"immediate-successor subgroups (the paper's future work)"},
		{"TG", func(db *hybridgc.DB) hybridgc.Collector { return gc.NewTableGC(db.Manager(), 1) },
			"semantic: per-table trackers for scoped long-lived snapshots"},
		{"HG", func(db *hybridgc.DB) hybridgc.Collector { return db.GC() },
			"GT + TG + SI combined"},
	}
	for _, e := range entries {
		db, done := buildHistory()
		before := db.Stats().VersionsLive
		st := e.make(db).Collect()
		fmt.Printf("%-4s reclaimed %3d of %d versions  (%s)\n", e.name, st.Versions, before, e.blurb)
		done()
	}
	fmt.Println()
	fmt.Println("reading the table: timestamp collectors (ST, GT) stop at the cursor's")
	fmt.Println("timestamp; interval collectors (SI, GI) also clear the middle of the")
	fmt.Println("chains; TG clears HOT entirely by scoping the cursor to COLD; HG does all.")
}
