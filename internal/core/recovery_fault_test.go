package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hybridgc/internal/fault"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// TestTornTailDDLRecovery crashes mid-append of a DDL record: half the frame
// reaches the segment, so recovery must drop the torn tail, keep everything
// before it, and leave the half-created table fully absent — and the name
// reusable after recovery.
func TestTornTailDDLRecovery(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	cfg := Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tidA, err := db.CreateTable("A")
	if err != nil {
		t.Fatal(err)
	}
	var rid ts.RID
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		var err error
		rid, err = tx.Insert(tidA, []byte("kept"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(wal.FPAppendTorn)
	if _, err := db.CreateTable("B"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("CreateTable under torn append: %v, want injected error", err)
	}
	fault.Reset()
	if failed, _ := db.FailStop(); !failed {
		t.Fatal("torn append did not fail-stop the engine")
	}
	db.Close()

	db2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery over a torn DDL tail failed: %v", err)
	}
	defer db2.Close()
	if got := db2.TableID("B"); got != 0 {
		t.Fatalf("half-logged table recovered with id %d, want absent", got)
	}
	if img, ok := db2.ReadAt(db2.TableID("A"), rid, db2.Manager().CurrentTS()); !ok || string(img) != "kept" {
		t.Fatalf("pre-crash row: %q, %v", img, ok)
	}
	// The name is free again: the DDL can simply be reissued.
	tidB, err := db2.CreateTable("B")
	if err != nil {
		t.Fatalf("reissuing the torn DDL: %v", err)
	}
	err = db2.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		_, err := tx.Insert(tidB, []byte("second try"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenCheckpointSyncAndRename covers the narrow window after the
// checkpoint temp file is synced but before the atomic rename: the engine
// keeps running on the old checkpoint (a checkpoint failure is not a
// durability failure), a stranded temp file must not confuse recovery, and
// the next checkpoint succeeds normally.
func TestCrashBetweenCheckpointSyncAndRename(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	cfg := Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.CreateTable("T")
	if err != nil {
		t.Fatal(err)
	}
	var rid ts.RID
	set := func(db *DB, tid ts.TableID, val string) {
		t.Helper()
		err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
			if rid == 0 {
				var err error
				rid, err = tx.Insert(tid, []byte(val))
				return err
			}
			return tx.Update(tid, rid, []byte(val))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	set(db, tid, "v1")
	if err := db.Checkpoint(); err != nil { // baseline checkpoint
		t.Fatal(err)
	}
	set(db, tid, "v2")

	fault.Enable(wal.FPCheckpointRename)
	if err := db.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint under rename failure: %v, want injected error", err)
	}
	fault.Reset()
	if failed, cause := db.FailStop(); failed {
		t.Fatalf("checkpoint failure fail-stopped the engine: %v", cause)
	}
	// Commits keep flowing on the old checkpoint plus the log.
	set(db, tid, "v3")
	db.Close()

	// A real crash in that window strands the synced temp file (the injected
	// error path cleans it up, a power cut would not). Recovery must ignore it.
	stray := filepath.Join(dir, "checkpoint-stray.tmp")
	if err := os.WriteFile(stray, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery with a stranded checkpoint temp file failed: %v", err)
	}
	defer db2.Close()
	tid2 := db2.TableID("T")
	if img, ok := db2.ReadAt(tid2, rid, db2.Manager().CurrentTS()); !ok || string(img) != "v3" {
		t.Fatalf("recovered %q, %v, want v3 (old checkpoint + log replay)", img, ok)
	}
	// The next checkpoint replaces the old one cleanly...
	set(db2, tid2, "v4")
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovered rename failure: %v", err)
	}
	db2.Close()
	// ...and recovery from it works.
	db3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if img, ok := db3.ReadAt(db3.TableID("T"), rid, db3.Manager().CurrentTS()); !ok || string(img) != "v4" {
		t.Fatalf("post-checkpoint recovery: %q, %v, want v4", img, ok)
	}
}
