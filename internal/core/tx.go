package core

import (
	"fmt"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Tx is a transaction handle. Under Stmt-SI every operation reads at its own
// statement snapshot scoped to the table it touches (the scope is known from
// the "compiled plan", i.e. the call itself); under Trans-SI the snapshot
// taken at Begin covers all reads, and a declared table list both enables
// table GC for the snapshot and is enforced on access.
type Tx struct {
	db    *DB
	inner *txn.Txn
	// stmts counts the statements the transaction ran and traversed the
	// chain versions they stepped over; both go on the engine's counters
	// when it commits or aborts (flush), not per operation.
	stmts, traversed int64
}

// Begin starts a transaction. declaredTables may be nil for Trans-SI
// transactions with unpredictable scope; Stmt-SI transactions ignore it.
func (db *DB) Begin(iso txn.Isolation, declaredTables ...ts.TableID) *Tx {
	return &Tx{db: db, inner: db.m.Begin(iso, declaredTables)}
}

// Isolation returns the transaction's isolation variant.
func (tx *Tx) Isolation() txn.Isolation { return tx.inner.Isolation() }

// SnapshotTS returns the transaction snapshot timestamp under Trans-SI, or
// the current commit timestamp under Stmt-SI (what the next statement will
// read at).
func (tx *Tx) SnapshotTS() ts.CID {
	if s := tx.inner.Snapshot(); s != nil {
		return s.TS()
	}
	return tx.db.m.CurrentTS()
}

// Commit finishes the transaction through group commit.
func (tx *Tx) Commit() error {
	_, err := tx.CommitCID()
	return err
}

// Abort rolls the transaction back.
func (tx *Tx) Abort() {
	tx.inner.Abort()
	tx.flush()
}

// flush adds the transaction's statement and traversal counts to the
// engine's.
func (tx *Tx) flush() {
	tx.db.count(tx.stmts, tx.traversed)
	tx.stmts, tx.traversed = 0, 0
}

// beginStatement returns the snapshot an operation on tid reads at; the
// caller hands it back to endStatement. Under Stmt-SI it re-arms the
// transaction's statement snapshot on tid; under Trans-SI it validates the
// declared scope and reuses the transaction snapshot.
func (tx *Tx) beginStatement(tid ts.TableID) (*txn.Snapshot, error) {
	if s := tx.inner.Snapshot(); s != nil {
		if s.Killed() {
			return nil, ErrSnapshotKilled
		}
		if !s.InScope(tid) {
			return nil, fmt.Errorf("%w: table %d", ErrOutOfScope, tid)
		}
		return s, nil
	}
	return tx.inner.Statement(tid), nil
}

// endStatement releases a statement snapshot; the transaction snapshot of a
// Trans-SI transaction lives until commit or abort.
func (tx *Tx) endStatement(s *txn.Snapshot) {
	if s != tx.inner.Snapshot() {
		s.Release()
	}
}

// Get returns the record image visible to the transaction.
func (tx *Tx) Get(tid ts.TableID, rid ts.RID) ([]byte, error) {
	tbl, err := tx.db.tableByID(tid)
	if err != nil {
		return nil, err
	}
	snap, err := tx.beginStatement(tid)
	if err != nil {
		return nil, err
	}
	defer tx.endStatement(snap)
	img, ok := tx.db.readRecord(tbl, rid, snap.TS(), tx.inner.MaybeContext(), &tx.traversed)
	if !ok {
		return nil, ErrRecordNotFound
	}
	tx.stmts++
	return img, nil
}

// Scan visits every record visible to the transaction in RID order until fn
// returns false.
func (tx *Tx) Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error {
	tbl, err := tx.db.tableByID(tid)
	if err != nil {
		return err
	}
	snap, err := tx.beginStatement(tid)
	if err != nil {
		return err
	}
	defer tx.endStatement(snap)
	at := snap.TS()
	tbl.ForEach(func(rec *table.Record) bool {
		img, ok := tx.db.readRec(rec, at, tx.inner.MaybeContext(), &tx.traversed)
		if !ok {
			return true
		}
		return fn(rec.RID(), img)
	})
	tx.stmts++
	return nil
}

// Insert creates a new record and returns its RID.
func (tx *Tx) Insert(tid ts.TableID, img []byte) (ts.RID, error) {
	tbl, err := tx.db.tableByID(tid)
	if err != nil {
		return 0, err
	}
	if tx.db.readOnly {
		return 0, ErrReadOnly
	}
	if err := tx.checkWriteScope(tid); err != nil {
		return 0, err
	}
	if err := tx.db.admitWrite(); err != nil {
		return 0, err
	}
	rid := tbl.AllocRID()
	rec, err := tbl.CreateRecord(rid)
	if err != nil {
		return 0, err
	}
	v := mvcc.NewVersion(mvcc.OpInsert, ts.RecordKey{Table: tid, RID: rid}, img, tx.inner.Context())
	if _, err := tx.db.space.Prepend(rec, v, tx.inner.ConflictCheck()); err != nil {
		rec.DropRecord()
		return 0, err
	}
	tx.inner.Context().Add(v)
	tx.stmts++
	return rid, nil
}

// Update installs a new image for an existing record.
func (tx *Tx) Update(tid ts.TableID, rid ts.RID, img []byte) error {
	return tx.write(mvcc.OpUpdate, tid, rid, img)
}

// Delete removes a record as of the transaction's commit.
func (tx *Tx) Delete(tid ts.TableID, rid ts.RID) error {
	return tx.write(mvcc.OpDelete, tid, rid, nil)
}

func (tx *Tx) write(op mvcc.OpType, tid ts.TableID, rid ts.RID, img []byte) error {
	tbl, err := tx.db.tableByID(tid)
	if err != nil {
		return err
	}
	if tx.db.readOnly {
		return ErrReadOnly
	}
	if err := tx.checkWriteScope(tid); err != nil {
		return err
	}
	if err := tx.db.admitWrite(); err != nil {
		return err
	}
	// The record must be visible to the operation's snapshot.
	snap, err := tx.beginStatement(tid)
	if err != nil {
		return err
	}
	rec := tbl.Get(rid)
	visible := false
	if rec != nil {
		_, visible = tx.db.readRec(rec, snap.TS(), tx.inner.MaybeContext(), &tx.traversed)
	}
	tx.endStatement(snap)
	if !visible {
		return ErrRecordNotFound
	}
	v := mvcc.NewVersion(op, ts.RecordKey{Table: tid, RID: rid}, img, tx.inner.Context())
	if _, err := tx.db.space.Prepend(rec, v, tx.inner.ConflictCheck()); err != nil {
		return err
	}
	tx.inner.Context().Add(v)
	tx.stmts++
	return nil
}

// checkWriteScope enforces the declared-table API for Trans-SI writers.
func (tx *Tx) checkWriteScope(tid ts.TableID) error {
	if s := tx.inner.Snapshot(); s != nil && !s.InScope(tid) {
		return fmt.Errorf("%w: table %d", ErrOutOfScope, tid)
	}
	return nil
}

// Exec runs fn inside a transaction, committing on success and aborting on
// error or panic. Convenience for autocommit-style callers and the TPC-C
// driver.
func (db *DB) Exec(iso txn.Isolation, declared []ts.TableID, fn func(tx *Tx) error) error {
	tx := db.Begin(iso, declared...)
	done := false
	defer func() {
		if !done {
			tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		tx.Abort()
		done = true
		return err
	}
	if err := tx.Commit(); err != nil {
		done = true
		return err
	}
	done = true
	return nil
}
