package core

import (
	"hybridgc/internal/ts"
	"hybridgc/internal/wal"
)

// Two-phase-commit participant hooks. The protocol itself lives in
// internal/shard; the engine only contributes durability: a participant's
// write set goes into its own log as a KindPrepare record, the local publish
// then skips the group committer's WAL record (the write set is already
// durable), and the coordinator stamps the published CID into a KindResolve
// record so recovery can replay the write set at its correct position among
// the surrounding commit groups.

// PendingOps snapshots the transaction's write set in execution order as WAL
// operations — the payload of a two-phase-commit prepare record.
func (tx *Tx) PendingOps() []wal.Op {
	tc := tx.inner.MaybeContext()
	if tc == nil {
		return nil
	}
	vs := tc.Versions()
	ops := make([]wal.Op, 0, len(vs))
	for i := range vs {
		v := vs[i].Load()
		ops = append(ops, wal.Op{Op: v.Op, Table: v.Key.Table, RID: v.Key.RID, Payload: v.Payload})
	}
	return ops
}

// CommitCID commits the transaction through group commit and returns the CID
// its versions published under.
func (tx *Tx) CommitCID() (ts.CID, error) {
	tx.flush()
	return tx.inner.Commit()
}

// MarkPrepared flags the transaction's write set as already durable: the
// group committer will publish it without logging a KindGroup record.
func (tx *Tx) MarkPrepared() { tx.inner.Context().SetSkipLog() }

// AppendPrepare logs a participant's prepared write set under the
// distributed transaction ID. A no-op without persistence.
func (db *DB) AppendPrepare(xid uint64, ops []wal.Op) error {
	if db.log == nil {
		return nil
	}
	if err := db.fail.check(); err != nil {
		return err
	}
	return db.log.Append(&wal.Record{Kind: wal.KindPrepare, XID: xid, Ops: ops})
}

// AppendDecision logs the coordinator's verdict for a distributed
// transaction. A no-op without persistence.
func (db *DB) AppendDecision(xid uint64, commit bool) error {
	if db.log == nil {
		return nil
	}
	if err := db.fail.check(); err != nil {
		return err
	}
	return db.log.Append(&wal.Record{Kind: wal.KindDecision, XID: xid, Commit: commit})
}

// AppendResolve settles a prepared transaction in this participant's log. On
// commit, cid is the CID the write set published under; on abort it is
// ignored. A no-op without persistence.
func (db *DB) AppendResolve(xid uint64, commit bool, cid ts.CID) error {
	if db.log == nil {
		return nil
	}
	if err := db.fail.check(); err != nil {
		return err
	}
	return db.log.Append(&wal.Record{Kind: wal.KindResolve, XID: xid, Commit: commit, CID: cid})
}

// Recovery returns the two-phase-commit state found in the log at Open (nil
// without persistence): in-doubt prepared write sets and, on a coordinator
// shard, the decision records.
func (db *DB) Recovery() *RecoverySummary { return db.recovery }

// CommitRecovered installs an in-doubt prepared write set whose verdict
// recovery determined to be commit. It runs before the engine serves traffic
// (no snapshot exists), so the images go straight into the table space like
// replayed log records, published under a fresh CID which is returned for
// the settling KindResolve record.
func (db *DB) CommitRecovered(ops []wal.Op) (ts.CID, error) {
	for _, op := range ops {
		if err := replayOp(db.cat, op); err != nil {
			return 0, err
		}
	}
	cid := db.m.CurrentTS() + 1
	db.m.SetCommitTS(cid)
	return cid, nil
}

// EnterFailStop latches the engine into fail-stop read-only mode with the
// given cause — the shard coordinator's reaction to a durability failure
// mid-protocol, mirroring what the group committer does on a commit-log
// failure.
func (db *DB) EnterFailStop(cause error) { db.fail.enter(cause) }
