package core_test

import (
	"os"
	"runtime"
	"testing"

	"hybridgc/internal/core"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/wal"
)

// TestCheckpointHeapFlat: a checkpoint streams the table space into its
// file, so what it allocates does not grow with the tables. At 1 and at 4
// TPC-C warehouses it stays under one bound far below the file's size.
func TestCheckpointHeapFlat(t *testing.T) {
	const bound = 1 << 20
	for _, warehouses := range []int{1, 4} {
		dir := t.TempDir()
		db, err := core.Open(core.Config{Persistence: &core.Persistence{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		drv, err := tpcc.New(db, tpcc.Config{
			Warehouses: warehouses, Districts: 10, CustomersPerDistrict: 100, Items: 5000, Seed: 1})
		if err == nil {
			err = drv.Load()
		}
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc - before
		db.Close()
		fi, err := os.Stat(wal.CheckpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d warehouses: a checkpoint allocated %d B for a %d B file", warehouses, alloc, fi.Size())
		if alloc > bound || alloc > uint64(fi.Size())/4 {
			t.Errorf("%d warehouses: a checkpoint allocated %d B for a %d B file, want under %d B and a quarter of the file",
				warehouses, alloc, fi.Size(), bound)
		}
	}
}
