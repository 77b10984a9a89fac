package tpcc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// TestSoakEverything runs every moving part at once: TPC-C workers, a
// long-duration cursor with incremental FETCH, repeated Trans-SI scans, the
// periodic HybridGC, a version budget whose pressure ladder evicts the
// cursor mid-run, write-ahead logging with concurrent checkpoints — then
// checks full TPC-C consistency, restarts from the persistency, re-attaches,
// and checks again.
func TestSoakEverything(t *testing.T) {
	// -short (make race) runs a shorter soak: the cursor is still evicted
	// a few hundred milliseconds in.
	run := 1200 * time.Millisecond
	if testing.Short() {
		run = 600 * time.Millisecond
	}
	dir := t.TempDir()
	cfg := Config{Warehouses: 3, Districts: 3, CustomersPerDistrict: 12, Items: 80, Seed: 99}
	db, err := core.Open(core.Config{
		Persistence:        &core.Persistence{Dir: dir},
		GC:                 gc.Periods{GT: 2 * time.Millisecond, TG: 6 * time.Millisecond, SI: 20 * time.Millisecond},
		LongLivedThreshold: 5 * time.Millisecond,
		AutoGC:             true,
		// The cursor holds a version of every STOCK row updated after it
		// opened, up to 240 of them; without it a full pass mostly leaves
		// the workers' uncommitted versions, under 100. So the cursor keeps
		// the ladder over Soft and is evicted evictAfter (200 ms) later.
		VersionBudget: core.VersionBudget{Soft: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	// OLTP workers.
	for w := 1; w <= cfg.Warehouses; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := d.NewWorker(w).Run(1<<62, stop); err != nil {
				errCh <- err
			}
		}(w)
	}
	// Incremental-FETCH cursor; the pressure ladder will evict it.
	var cursorEvicted atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur, err := db.OpenCursor(d.StockTableID())
		if err != nil {
			errCh <- err
			return
		}
		defer cur.Close()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if _, _, err := cur.Fetch(20); err != nil {
				if errors.Is(err, core.ErrSnapshotKilled) {
					cursorEvicted.Store(true)
					return
				}
				errCh <- err
				return
			}
		}
	}()
	// Repeated Trans-SI scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			tx := db.Begin(txn.TransSI)
			err := tx.Scan(d.StockTableID(), func(_ ts.RID, _ []byte) bool { return true })
			if err != nil && !errors.Is(err, core.ErrSnapshotKilled) {
				tx.Abort()
				errCh <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Periodic checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			if err := db.Checkpoint(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	time.Sleep(run)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	t.Logf("pressure: %+v", db.PressureStats())
	if !cursorEvicted.Load() {
		t.Fatalf("the cursor was not evicted during the run: %+v", db.PressureStats())
	}
	if err := d.Check(); err != nil {
		t.Fatalf("consistency before restart: %v", err)
	}
	committed := db.Stats().Txn.TxnsCommitted
	if committed == 0 {
		t.Fatal("soak committed nothing")
	}
	db.Close()

	// Restart from the persistency and re-check everything.
	db2, err := core.Open(core.Config{
		Persistence: &core.Persistence{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	d2, err := Attach(db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Check(); err != nil {
		t.Fatalf("consistency after restart: %v", err)
	}
	// And the recovered database still serves the workload.
	if err := d2.NewWorker(1).Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if err := d2.Check(); err != nil {
		t.Fatalf("consistency after post-restart work: %v", err)
	}
}

// TestBudgetBelowBatchTripsNothing: a version budget whose soft watermark
// lies below the collector loop's batch (512 versions), under a TPC-C
// worker's writes with no snapshot held but the worker's own. Live crosses
// Soft between passes all the time, and a full pass reclaims every version
// it finds but the worker's open transaction's: the ladder never trips,
// never holds a writer back and rejects nothing. (A second worker's
// transactions would pin the first one's commits for their length, a real
// if brief pin.) Hard is far off, so a burst between two passes is no
// reason to wait either.
func TestBudgetBelowBatchTripsNothing(t *testing.T) {
	cfg := Config{Warehouses: 1, Districts: 3, CustomersPerDistrict: 12, Items: 80, Seed: 7}
	db, err := core.Open(core.Config{
		GC:            gc.DefaultPeriods(),
		AutoGC:        true,
		VersionBudget: core.VersionBudget{Soft: 200, Hard: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	before := db.PressureStats()
	stop := make(chan struct{})
	time.AfterFunc(500*time.Millisecond, func() { close(stop) })
	if err := d.NewWorker(1).Run(1<<62, stop); err != nil {
		t.Fatal(err)
	}
	after := db.PressureStats()
	t.Logf("pressure: %+v", after)
	if after.Emergencies == before.Emergencies {
		t.Fatalf("live never crossed Soft; the run shows nothing: %+v", after)
	}
	if after.SoftTrips != before.SoftTrips || after.Backpressured != before.Backpressured || after.Rejected != before.Rejected {
		t.Fatalf("the ladder moved with no snapshot held: before %+v, after %+v", before, after)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
