package hybridgc_test

import (
	"fmt"
	"time"

	"hybridgc"
	"hybridgc/internal/txn"
)

// Example shows the minimal write/read/GC cycle: updates append versions,
// a HybridGC pass reclaims the obsolete ones and migrates the newest image
// into the table space.
func Example() {
	db := hybridgc.MustOpen(hybridgc.Config{})
	defer db.Close()

	tid, _ := db.CreateTable("ACCOUNTS")
	var rid hybridgc.RID
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte("balance=100"))
		return err
	})
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		return tx.Update(tid, rid, []byte("balance=90"))
	})

	fmt.Println("live versions before GC:", db.Stats().VersionsLive)
	db.GC().Collect()
	fmt.Println("live versions after GC: ", db.Stats().VersionsLive)
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		img, err := tx.Get(tid, rid)
		fmt.Println("value:", string(img))
		return err
	})
	// Output:
	// live versions before GC: 2
	// live versions after GC:  0
	// value: balance=90
}

// ExampleDB_OpenCursor demonstrates the long-lived cursor that motivates
// the paper: its snapshot is pinned at open time, so later updates stay
// invisible to it — and would block the conventional collector.
func ExampleDB_OpenCursor() {
	db := hybridgc.MustOpen(hybridgc.Config{})
	defer db.Close()
	tid, _ := db.CreateTable("STOCK")
	var rid hybridgc.RID
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte("qty=50"))
		return err
	})

	cur, _ := db.OpenCursor(tid)
	defer cur.Close()
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		return tx.Update(tid, rid, []byte("qty=49"))
	})

	rows, stats, _ := cur.Fetch(10)
	fmt.Printf("cursor sees %q after the update (traversed %d versions)\n",
		rows[0], stats.Traversed)
	// Output:
	// cursor sees "qty=50" after the update (traversed 2 versions)
}

// ExampleDB_Begin_transSI shows transaction-level snapshot isolation with a
// declared table scope: reads repeat, undeclared access fails, and the
// declared scope makes the snapshot eligible for table garbage collection.
func ExampleDB_Begin_transSI() {
	db := hybridgc.MustOpen(hybridgc.Config{})
	defer db.Close()
	a, _ := db.CreateTable("A")
	b, _ := db.CreateTable("B")
	var rid hybridgc.RID
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		var err error
		rid, err = tx.Insert(a, []byte("v1"))
		if err != nil {
			return err
		}
		_, err = tx.Insert(b, []byte("w1"))
		return err
	})

	tx := db.Begin(hybridgc.TransSI, a) // declares scope {A}
	defer tx.Abort()
	img, _ := tx.Get(a, rid)
	fmt.Println("declared read:", string(img))
	if _, err := tx.Get(b, 1); err != nil {
		fmt.Println("undeclared read fails:", err != nil)
	}
	// Output:
	// declared read: v1
	// undeclared read fails: true
}

// Example_figure1 replays the paper's Figure 1: a record's chain holds v11
// to v15 while an old snapshot (taken after v12) and a current one are
// active. The timestamp collector reclaims only v11, below the old
// snapshot; the interval collector also removes v13 and v14, which no
// snapshot can see. Both snapshots still read their own versions.
func Example_figure1() {
	db := hybridgc.MustOpen(hybridgc.Config{})
	defer db.Close()
	tid, _ := db.CreateTable("FIG1")
	var rid hybridgc.RID
	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte("v11"))
		return err
	})
	update := func(img string) {
		db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
			return tx.Update(tid, rid, []byte(img))
		})
	}
	update("v12")
	old, _ := db.OpenCursor(tid)
	defer old.Close()
	for _, img := range []string{"v13", "v14", "v15"} {
		update(img)
	}
	cur, _ := db.OpenCursor(tid)
	defer cur.Close()

	before := db.Stats().VersionsLive
	db.GC().RunGT()
	afterGT := db.Stats().VersionsLive
	db.GC().RunSI()
	fmt.Printf("versions: %d, after GT %d, after SI %d\n", before, afterGT, db.Stats().VersionsLive)
	rows, _, _ := old.Fetch(1)
	fmt.Printf("old snapshot reads %s\n", rows[0])
	rows, _, _ = cur.Fetch(1)
	fmt.Printf("current snapshot reads %s\n", rows[0])
	// Output:
	// versions: 5, after GT 4, after SI 2
	// old snapshot reads v12
	// current snapshot reads v15
}

// Example_taxonomy runs the collectors of the paper's Figure 3 on one
// history each: 16 records (8 in HOT, 8 in COLD), each inserted and updated
// six times, 112 versions, with a cursor on COLD opened after the inserts
// and a current statement snapshot. The timestamp collectors (ST, GT) stop
// at the cursor; the interval collectors (SI, GI) also clear the middle of
// the chains; TG scopes the long-lived cursor to COLD and clears HOT.
// HybridGC is GT + SI while the cursor is younger than its long-lived
// threshold, and adds TG once it is older.
func Example_taxonomy() {
	collectors := []struct {
		name      string
		threshold time.Duration
		collector func(*hybridgc.DB) hybridgc.Collector
	}{
		{"ST", time.Hour, hybridgc.NewSingleTimestamp},
		{"GT", time.Hour, func(db *hybridgc.DB) hybridgc.Collector { return db.GC().GT }},
		{"SI", time.Hour, func(db *hybridgc.DB) hybridgc.Collector { return db.GC().SI }},
		{"GI", time.Hour, hybridgc.NewGroupInterval},
		{"TG", time.Nanosecond, func(db *hybridgc.DB) hybridgc.Collector { return db.GC().TG }},
		{"HG, young cursor", time.Hour, func(db *hybridgc.DB) hybridgc.Collector { return db.GC() }},
		{"HG, long-lived cursor", time.Nanosecond, func(db *hybridgc.DB) hybridgc.Collector { return db.GC() }},
	}
	for _, c := range collectors {
		db := hybridgc.MustOpen(hybridgc.Config{LongLivedThreshold: c.threshold})
		hot, _ := db.CreateTable("HOT")
		cold, _ := db.CreateTable("COLD")
		var hotRIDs, coldRIDs []hybridgc.RID
		for i := 0; i < 8; i++ {
			db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
				h, _ := tx.Insert(hot, []byte("h0"))
				r, err := tx.Insert(cold, []byte("c0"))
				hotRIDs, coldRIDs = append(hotRIDs, h), append(coldRIDs, r)
				return err
			})
		}
		cursor, _ := db.OpenCursor(cold)
		for round := 1; round <= 6; round++ {
			for i := range hotRIDs {
				db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
					if err := tx.Update(hot, hotRIDs[i], []byte(fmt.Sprint("h", round))); err != nil {
						return err
					}
					return tx.Update(cold, coldRIDs[i], []byte(fmt.Sprint("c", round)))
				})
			}
		}
		now := db.Manager().AcquireSnapshot(txn.KindStatement, nil)
		before := db.Stats().VersionsLive
		fmt.Printf("%-21s reclaims %3d of %d\n", c.name, c.collector(db).Collect().Versions, before)
		now.Release()
		cursor.Close()
		db.Close()
	}
	// Output:
	// ST                    reclaims  14 of 112
	// GT                    reclaims  14 of 112
	// SI                    reclaims  80 of 112
	// GI                    reclaims  80 of 112
	// TG                    reclaims  62 of 112
	// HG, young cursor      reclaims  94 of 112
	// HG, long-lived cursor reclaims 102 of 112
}
