package core

import (
	"errors"
	"fmt"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/wal"
)

// Replication apply path: a replica replays the primary's WAL stream into
// its own engine through these methods. Unlike crash recovery — which
// installs bare table-space images because no snapshot can exist at restart
// — the live apply path goes through the version space at the original
// primary CIDs, so concurrent replica readers keep full snapshot isolation
// while the stream advances underneath them. The methods bypass the
// ReadOnly gate (they ARE the replica's write path) and must be called from
// a single applier goroutine.

// ErrNotEmpty reports a checkpoint bootstrap attempted on an engine that has
// already committed or applied state.
var ErrNotEmpty = errors.New("core: checkpoint apply requires an empty database")

// ApplyCheckpoint installs a primary checkpoint into an empty engine: the
// catalog, every record's image, the RID allocator positions, and the
// checkpoint CID as the commit timestamp. This is the replica bootstrap;
// stream records with CID <= the checkpoint CID are covered and must be
// skipped by the applier (ApplyRecord does so).
func (db *DB) ApplyCheckpoint(ck *wal.CheckpointReader) error {
	if err := db.fail.check(); err != nil {
		return err
	}
	if db.m.CurrentTS() != 0 || len(db.cat.Tables()) != 0 {
		return ErrNotEmpty
	}
	if err := installCheckpoint(db.cat, ck); err != nil {
		return err
	}
	db.m.SetCommitTS(ck.CID)
	return nil
}

// ApplyDDL registers a replicated table under its primary-assigned ID.
// Idempotent: a table already present (from the checkpoint, or a replayed
// duplicate) is left alone.
func (db *DB) ApplyDDL(id ts.TableID, name string) error {
	if err := db.fail.check(); err != nil {
		return err
	}
	if db.cat.ByID(id) != nil {
		return nil
	}
	_, err := db.cat.Restore(id, name)
	return err
}

// ApplyGroup replays one commit group at its primary CID: every operation
// becomes a version prepended to its record's chain (no conflict check —
// the primary already serialized these writes), and the group is published
// through the transaction manager exactly like a local group commit. A CID
// at or below the current commit timestamp is a duplicate (stream overlap,
// or coverage by the bootstrap checkpoint) and is skipped.
func (db *DB) ApplyGroup(cid ts.CID, ops []wal.Op) error {
	if err := db.fail.check(); err != nil {
		return err
	}
	if cid <= db.m.CurrentTS() {
		return nil
	}
	tc := mvcc.NewTransContext(0) // replicated groups carry no local txn ID
	for _, op := range ops {
		tbl := db.cat.ByID(op.Table)
		if tbl == nil {
			return fmt.Errorf("core: replicated group %d references unknown table %d", cid, op.Table)
		}
		rec := tbl.Get(op.RID)
		if op.Op == mvcc.OpInsert {
			if rec != nil {
				return fmt.Errorf("core: replicated insert into existing record %d/%d", op.Table, op.RID)
			}
			var err error
			rec, err = tbl.CreateRecord(op.RID)
			if err != nil {
				return err
			}
			tbl.EnsureNextRID(op.RID)
		} else if rec == nil {
			return fmt.Errorf("core: replicated %v on missing record %d/%d", op.Op, op.Table, op.RID)
		}
		v := mvcc.NewVersion(op.Op, ts.RecordKey{Table: op.Table, RID: op.RID}, op.Payload, tc)
		if _, err := db.space.Prepend(rec, v, nil); err != nil {
			return err
		}
		tc.Add(v)
	}
	db.count(int64(len(ops)), 0)
	return db.m.PublishReplicated(cid, tc)
}

// ApplyRecord replays one WAL record (the unit the replication stream
// ships), dispatching on its kind. Nothing is buffered across records: a
// commit group is one record, so when ApplyRecord returns nil the record is
// applied.
func (db *DB) ApplyRecord(r *wal.Record) error {
	switch r.Kind {
	case wal.KindDDL:
		return db.ApplyDDL(r.TableID, r.TableName)
	case wal.KindGroup:
		return db.ApplyGroup(r.CID, r.Ops)
	default:
		return fmt.Errorf("core: replicated record of unknown kind %d", r.Kind)
	}
}
