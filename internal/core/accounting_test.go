package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hybridgc/internal/gc"
	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// TestAccountingConserved: writers commit, abort and hit write conflicts on a
// small table while the Hybrid collector runs, beside a cursor fetching, one
// transaction that aborts more versions than a tally holds, and a Trans-SI
// snapshot held throughout so that chains outlive the run. At quiescence
// every counter equals a walk of what is actually linked — Live() the
// versions, LiveBytes() their footprints, Chains and OccupiedBuckets the
// chains and the buckets they sit in, Created() − ReclaimedTotal() −
// RolledBackTotal() the versions again — and the statement, creation and
// rollback counts equal what the test issued. Dropping the flush on the abort
// path turns it red: without Tx.Abort's, the aborted transactions' statements
// are never counted; without Manager.rollback's, neither are their versions'
// creation and rollback.
func TestAccountingConserved(t *testing.T) {
	db := openTest(t, Config{
		HashBuckets:        64,
		GC:                 gc.Periods{GT: time.Millisecond, TG: 3 * time.Millisecond, SI: 5 * time.Millisecond},
		LongLivedThreshold: 2 * time.Millisecond,
		AutoGC:             true,
	})
	tid := mustCreate(t, db, "T")
	const rows = 48
	rids := make([]ts.RID, rows)
	for i := range rids {
		rids[i] = insert1(t, db, tid, "init")
	}
	// What the test issued: statements run, versions linked, and versions
	// linked by transactions that then aborted.
	var stmts, created, rolled atomic.Int64
	stmts.Add(rows)
	created.Add(rows)

	pin := db.Begin(txn.TransSI)
	defer pin.Abort()

	txns := 400
	if testing.Short() {
		txns = 150
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var own []ts.RID // rows this writer inserted; nobody else touches them
			for i := 0; i < txns; i++ {
				tx := db.Begin(txn.StmtSI)
				var ran int64
				var inserted []ts.RID
				conflict := false
				for op := rng.Intn(4); op >= 0 && !conflict; op-- {
					var err error
					switch k := rng.Intn(8); {
					case k == 0:
						_, err = tx.Get(tid, rids[rng.Intn(rows)])
					case k == 1:
						var rid ts.RID
						if rid, err = tx.Insert(tid, []byte("new")); err == nil {
							inserted = append(inserted, rid)
						}
					case k == 2 && len(own) > 0:
						err = tx.Delete(tid, own[len(own)-1])
						if err == nil {
							own = own[:len(own)-1]
						}
					default:
						err = tx.Update(tid, rids[rng.Intn(rows)], []byte(fmt.Sprintf("w%d-%d", seed, i)))
					}
					switch {
					case err == nil:
						ran++
					case errors.Is(err, ErrWriteConflict):
						conflict = true
					default:
						t.Error(err)
						tx.Abort()
						return
					}
				}
				var wrote int64
				if tc := tx.inner.MaybeContext(); tc != nil {
					wrote = int64(tc.VersionCount())
				}
				stmts.Add(ran)
				created.Add(wrote)
				if conflict || rng.Intn(3) == 0 {
					tx.Abort()
					rolled.Add(wrote)
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				own = append(own, inserted...)
			}
		}(int64(w) + 1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			cur, err := db.OpenCursor(tid)
			if err != nil {
				t.Error(err)
				return
			}
			for !cur.Exhausted() {
				if _, _, err := cur.Fetch(4); err != nil {
					t.Error(err)
					break
				}
				stmts.Add(1)
				time.Sleep(100 * time.Microsecond)
			}
			cur.Close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx := db.Begin(txn.StmtSI)
		for i := 0; i < 100; i++ {
			if _, err := tx.Insert(tid, []byte("bulk")); err != nil {
				t.Error(err)
				break
			}
			stmts.Add(1)
			created.Add(1)
			rolled.Add(1)
		}
		tx.Abort()
	}()
	wg.Wait()
	db.GC().Stop()

	sp := db.Space()
	ht := sp.HT
	var chains, versions, bytes, heads int64
	ht.ForEach(func(c *mvcc.Chain) bool {
		chains++
		for v := c.Head(); v != nil; v = v.Older() {
			versions++
			bytes += v.Footprint()
		}
		// A chain found without an extra hop heads its bucket, so counting
		// those counts the occupied buckets.
		before := ht.Stats().ExtraHops
		ht.Get(c.Key)
		if ht.Stats().ExtraHops == before {
			heads++
		}
		return true
	})
	st := db.Stats()
	t.Logf("walked %d versions on %d chains in %d buckets; %d rolled back, %d reclaimed", versions, chains, heads, rolled.Load(), sp.ReclaimedTotal())
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Live()", st.VersionsLive, versions},
		{"LiveBytes()", st.VersionsLiveBytes, bytes},
		{"Stats().Hash.Chains", st.Hash.Chains, chains},
		{"Stats().Hash.OccupiedBuckets", int64(st.Hash.OccupiedBuckets), heads},
		{"Created() − ReclaimedTotal() − RolledBackTotal()", sp.Created() - sp.ReclaimedTotal() - sp.RolledBackTotal(), versions},
		{"Created()", sp.Created(), created.Load()},
		{"RolledBackTotal()", sp.RolledBackTotal(), rolled.Load()},
		{"StatementCount()", db.StatementCount(), stmts.Load()},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if rolled.Load() == 0 || sp.ReclaimedTotal() == 0 || heads == chains {
		t.Fatalf("the run exercised too little: %d rolled back, %d reclaimed, %d chains in %d buckets",
			rolled.Load(), sp.ReclaimedTotal(), chains, heads)
	}
}

// TestDBCountersOffTheReadLine pins the padding of DB: the counters sit at
// least a cache line past the fields every operation reads, so adding to them
// never invalidates the line those reads load.
func TestDBCountersOffTheReadLine(t *testing.T) {
	var db DB
	readEnd := max(
		unsafe.Offsetof(db.cat)+unsafe.Sizeof(db.cat),
		unsafe.Offsetof(db.space)+unsafe.Sizeof(db.space),
		unsafe.Offsetof(db.m)+unsafe.Sizeof(db.m),
		unsafe.Offsetof(db.hybrid)+unsafe.Sizeof(db.hybrid),
		unsafe.Offsetof(db.fail)+unsafe.Sizeof(db.fail),
		unsafe.Offsetof(db.pressure)+unsafe.Sizeof(db.pressure),
		unsafe.Offsetof(db.readOnly)+unsafe.Sizeof(db.readOnly),
	)
	for name, off := range map[string]uintptr{
		"statements": unsafe.Offsetof(db.statements),
		"traversed":  unsafe.Offsetof(db.traversed),
		"closed":     unsafe.Offsetof(db.closed),
	} {
		if off < readEnd+64 {
			t.Errorf("DB.%s at offset %d, within a cache line of the read-mostly fields ending at %d", name, off, readEnd)
		}
	}
}
