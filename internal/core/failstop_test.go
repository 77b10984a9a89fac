package core

import (
	"errors"
	"testing"

	"hybridgc/internal/fault"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// TestFailStopOnCommitLogError injects an fsync failure under a committing
// group and asserts the contract of fail-stop mode: the commit that could
// not be logged fails, no later write is accepted (the unlogged state must
// not grow), reads keep working, and a reopen recovers exactly the acked
// prefix.
func TestFailStopOnCommitLogError(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db, err := Open(Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	var rid ts.RID
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte("acked"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// FPAppend fails before any byte reaches the segment, so the rejected
	// commit must be wholly absent after recovery. (FPSync would leave the
	// flushed record in the OS cache — the commit-ambiguity case the crash
	// matrix covers.)
	fault.Enable(wal.FPAppend)
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		_, err := tx.Insert(tid, []byte("lost"))
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under failing append: %v, want injected error", err)
	}
	fault.Reset()

	// The engine must now be fail-stopped: writes rejected even though the
	// injected fault is gone (the WAL state after a failed sync is unknown).
	failed, cause := db.FailStop()
	if !failed || cause == nil {
		t.Fatalf("FailStop() = %v, %v after logging failure", failed, cause)
	}
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		_, err := tx.Insert(tid, []byte("after"))
		return err
	})
	if !errors.Is(err, ErrFailStop) {
		t.Fatalf("write on fail-stopped engine: %v, want ErrFailStop", err)
	}
	if _, err := db.CreateTable("t2"); !errors.Is(err, ErrFailStop) {
		t.Fatalf("DDL on fail-stopped engine: %v, want ErrFailStop", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrFailStop) {
		t.Fatalf("checkpoint on fail-stopped engine: %v, want ErrFailStop", err)
	}
	if !db.Stats().FailStop {
		t.Fatal("Stats().FailStop not set")
	}
	// Reads still drain: the acked row is visible, the rolled-back one not.
	tx := db.Begin(txn.StmtSI)
	if img, err := tx.Get(tid, rid); err != nil || string(img) != "acked" {
		t.Fatalf("read on fail-stopped engine: %q, %v", img, err)
	}
	tx.Abort()
	db.Close()

	// Recovery sees the acked prefix only.
	db2, err := Open(Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if failed, _ := db2.FailStop(); failed {
		t.Fatal("fresh Open inherited fail-stop state")
	}
	tid2 := db2.TableID("t")
	tx2 := db2.Begin(txn.StmtSI)
	defer tx2.Abort()
	if img, err := tx2.Get(tid2, rid); err != nil || string(img) != "acked" {
		t.Fatalf("recovered read: %q, %v", img, err)
	}
	n := 0
	if err := tx2.Scan(tid2, func(ts.RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d rows, want 1 (the unlogged insert must not survive)", n)
	}
}

// TestFailStopOnPublishFailure covers the subtler half of the contract: the
// group is durably in the log, but publication fails. The CID is burned — a
// restart will replay the logged group — so the engine must fail-stop rather
// than reuse the CID for a later group (replay would then drop that group).
func TestFailStopOnPublishFailure(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db, err := Open(Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tid, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(txn.FPPublish, fault.Once())
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		_, err := tx.Insert(tid, []byte("logged-not-published"))
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under publish failure: %v, want injected error", err)
	}
	fault.Reset()
	if failed, _ := db.FailStop(); !failed {
		t.Fatal("publish failure did not fail-stop the engine")
	}
	err = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		_, err := tx.Insert(tid, []byte("after"))
		return err
	})
	if !errors.Is(err, ErrFailStop) {
		t.Fatalf("write after publish failure: %v, want ErrFailStop", err)
	}
	db.Close()

	// The logged-but-unpublished group is in the log; recovery replays it.
	// That is correct: the client got an error, so either outcome (present
	// or absent) is permitted for an unacknowledged commit — but the row
	// must be a consistent, committed image, not a torn partial.
	db2, err := Open(Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tid2 := db2.TableID("t")
	tx := db2.Begin(txn.StmtSI)
	defer tx.Abort()
	n := 0
	if err := tx.Scan(tid2, func(_ ts.RID, img []byte) bool {
		if string(img) != "logged-not-published" {
			t.Fatalf("recovered image %q", img)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d rows, want 1 (the logged group replays)", n)
	}
}
