package crashmatrix

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// TestInventoryComplete pins the failpoint inventory: every site the matrix
// depends on must be declared (importing core/txn/wal registers them), each
// with a description.
func TestInventoryComplete(t *testing.T) {
	want := []string{
		core.FPRecover,
		txn.FPPublish,
		wal.FPAppend,
		wal.FPAppendTorn,
		wal.FPCheckpointRename,
		wal.FPCheckpointSync,
		wal.FPCheckpointWrite,
		wal.FPRotate,
		wal.FPSegmentRemove,
		wal.FPSync,
	}
	have := map[string]bool{}
	for _, s := range fault.Inventory() {
		if s.Desc == "" {
			t.Errorf("site %s declared without a description", s.Name)
		}
		have[s.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("site %s missing from the inventory", name)
		}
	}
	if len(have) < len(want) {
		t.Errorf("inventory has %d sites, want at least %d", len(have), len(want))
	}
}

// TestCrashMatrix runs the full matrix: every declared failpoint, fired early
// (After=0) and deeper into the workload (After=5), plus targeted extras — a
// crash landing exactly on a DDL log record, and disk-full flavors on the
// append and checkpoint-rename paths.
func TestCrashMatrix(t *testing.T) {
	type cell struct {
		name string
		s    Scenario
	}
	var cells []cell
	for _, site := range fault.Inventory() {
		if strings.HasPrefix(site.Name, "shard/") {
			// 2PC protocol sites: unreachable from a single-node workload.
			// Test2PCCrashMatrix drives them against a sharded cluster.
			continue
		}
		afters := []int{0, 5}
		if Classify(site.Name) == ClassRecovery {
			afters = []int{0} // Open fires the site once per attempt
		}
		for _, a := range afters {
			cells = append(cells, cell{
				name: fmt.Sprintf("%s/after=%d", strings.ReplaceAll(site.Name, "/", "_"), a),
				s:    Scenario{Site: site.Name, After: a},
			})
		}
	}
	cells = append(cells,
		cell{name: "wal_append/ddl", s: Scenario{Site: wal.FPAppend, After: DDLAppendAfter}},
		cell{name: "wal_append-torn/ddl", s: Scenario{Site: wal.FPAppendTorn, After: DDLAppendAfter}},
		cell{name: "wal_append/enospc",
			s: Scenario{Site: wal.FPAppend, Err: fault.Errorf("append: no space left on device")}},
		cell{name: "wal_checkpoint-rename/enospc",
			s: Scenario{Site: wal.FPCheckpointRename, After: 1,
				Err: fault.Errorf("rename: no space left on device")}},
	)

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Run(filepath.Join(t.TempDir(), "db"), c.s)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fired < 1 {
				t.Fatalf("failpoint never fired: %+v", rep)
			}
			if rep.Recovered < rep.Acked || rep.Recovered > rep.Acked+1 {
				t.Fatalf("recovered CID %d outside [acked %d, acked+1]", rep.Recovered, rep.Acked)
			}
			if strings.HasSuffix(c.name, "/ddl") && !rep.PendingDDL {
				t.Fatalf("scenario was aimed at a DDL record but crashed op %d was not DDL", rep.CrashedAt)
			}
		})
	}
}

// TestCrashMatrixTPCC crashes a live TPC-C run at the durability failpoints
// and requires the recovered database to pass the benchmark's own consistency
// checks after re-attaching the driver — transaction atomicity across the
// crash, not just record-level fidelity.
func TestCrashMatrixTPCC(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 3, CustomersPerDistrict: 10, Items: 40, Seed: 42}
	for _, site := range []string{wal.FPSync, txn.FPPublish, wal.FPAppendTorn} {
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			defer fault.Reset()
			dir := filepath.Join(t.TempDir(), "db")
			db, err := core.Open(dbConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			d, err := tpcc.New(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Load(); err != nil {
				t.Fatal(err)
			}

			fault.Enable(site, fault.After(60), fault.Once())
			wk := d.NewWorker(1)
			var injected error
			for i := 0; i < 3000 && injected == nil; i++ {
				injected = wk.RunOne()
			}
			if !errors.Is(injected, fault.ErrInjected) {
				t.Fatalf("worker error %v, want the injected failure", injected)
			}
			if failed, _ := db.FailStop(); !failed {
				t.Fatal("durability failure under TPC-C did not fail-stop the engine")
			}
			img := dir + "-crash"
			if err := copyDir(dir, img); err != nil {
				t.Fatal(err)
			}
			db.Close()

			rec, err := core.Open(dbConfig(img))
			if err != nil {
				t.Fatalf("crash image failed to recover: %v", err)
			}
			defer rec.Close()
			d2, err := tpcc.Attach(rec, cfg)
			if err != nil {
				t.Fatalf("re-attach after crash: %v", err)
			}
			if err := d2.Check(); err != nil {
				t.Fatalf("TPC-C consistency violated after crash at %s: %v", site, err)
			}
		})
	}
}
