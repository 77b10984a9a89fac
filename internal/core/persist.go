package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"

	"hybridgc/internal/fault"
	"hybridgc/internal/mvcc"
	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// FPRecover fires at the start of recovery: a failure here models a crash
// during restart (e.g. a second power cut mid-recovery). Recovery is
// read-only over the checkpoint and log, so a subsequent Open must succeed
// and reach the same state.
var FPRecover = fault.Declare("core/recover", "at the start of log/checkpoint recovery")

// Persistence configures the common persistency of §2.1: write-ahead
// logging of commit groups and DDL, plus checkpointing of the table space.
type Persistence struct {
	// Dir is the directory holding log segments and the checkpoint.
	Dir string
	// Sync fsyncs the log on every commit group (full durability); without
	// it, records are flushed to the OS but not synced.
	Sync bool
}

// ErrNoPersistence is returned by Checkpoint on an in-memory-only database.
var ErrNoPersistence = errors.New("core: persistence not configured")

// walLogger adapts the WAL to the transaction manager's CommitLogger hook.
type walLogger struct {
	log *wal.Log
	// rec is the reused group record. LogCommit is called by the commit
	// group's leader, one leader at a time (txn.Manager.commitBatch), so no
	// locking is layered.
	rec wal.Record
}

// LogCommit implements txn.CommitLogger: the commit group becomes one
// KindGroup record — the CID, then every member's operations in member order
// — appended with one write and one fsync before the leader publishes the
// group. One record is one checksummed frame, so a group torn by a crash
// (which was never acknowledged) fails its checksum and disappears whole.
// Members whose write set is already durable (two-phase-commit participants,
// whose prepare record logged it) are skipped; their CID reaches the log via
// the KindResolve record the coordinator appends after publication.
func (w *walLogger) LogCommit(cid ts.CID, members []*mvcc.TransContext) error {
	w.rec = wal.Record{Kind: wal.KindGroup, CID: cid, Ops: w.rec.Ops[:0]}
	logged := false
	for _, tc := range members {
		if tc.SkipLog() {
			continue
		}
		logged = true
		vs := tc.Versions()
		for i := range vs {
			v := vs[i].Load()
			w.rec.Ops = append(w.rec.Ops, wal.Op{
				Op: v.Op, Table: v.Key.Table, RID: v.Key.RID, Payload: v.Payload,
			})
		}
	}
	if !logged {
		return nil
	}
	return w.log.Append(&w.rec)
}

// RecoverySummary is the two-phase-commit state recovery found in the log:
// prepared write sets with no settling resolve record (in doubt — the owner
// crashed between prepare and resolve) and, on a coordinator shard, the
// decision records. The shard cluster settles in-doubt transactions against
// the coordinator's decisions before serving; the protocol is presumed-abort,
// so an XID absent from Decisions aborts.
type RecoverySummary struct {
	InDoubt   map[uint64][]wal.Op
	Decisions map[uint64]bool
}

// pendingResolve is a settled prepare awaiting replay at its CID position.
type pendingResolve struct {
	cid ts.CID
	ops []wal.Op
}

// recover rebuilds the table space from the checkpoint (if any) and the log,
// returning the recovered commit timestamp. Recovered state lives entirely
// in the table space: after a restart no snapshot exists, so every row's
// single post-image is exactly what MVCC requires.
//
// Two passes over the log: the first collects two-phase-commit records —
// a commit-resolve's write set (from its prepare) must replay at its CID
// position among the commit groups, but the resolve record itself may sit
// later in the log than a higher-CID group (it is appended after the
// participant publishes, racing with later commits' appends). The second
// pass replays groups in log order and splices each settled write set in
// ascending CID order. The second pass's end of the log is what wal.Open cuts
// a torn tail at, so the log is read twice at open, not three times.
func recoverInto(cat *table.Catalog, dir string) (ts.CID, *RecoverySummary, wal.End, error) {
	if err := fault.Hit(FPRecover); err != nil {
		return 0, nil, wal.End{}, err
	}
	recovered := ts.CID(0)
	path := wal.CheckpointPath(dir)
	f, err := os.Open(path)
	switch {
	case err == nil:
		ck, err := wal.NewCheckpointReader(f)
		if err == nil {
			recovered = ck.CID
			err = installCheckpoint(cat, ck)
		}
		f.Close()
		if err != nil {
			return 0, nil, wal.End{}, fmt.Errorf("core: recovering %s: %w", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		// Cold start or checkpoint-less log: replay everything.
	default:
		return 0, nil, wal.End{}, err
	}

	// Pass 1: collect prepares, match resolves against them, note decisions.
	sum := &RecoverySummary{
		InDoubt:   map[uint64][]wal.Op{},
		Decisions: map[uint64]bool{},
	}
	var resolves []pendingResolve
	_, err = wal.ReadAll(dir, func(r *wal.Record) error {
		switch r.Kind {
		case wal.KindPrepare:
			sum.InDoubt[r.XID] = r.Ops
		case wal.KindResolve:
			ops := sum.InDoubt[r.XID]
			delete(sum.InDoubt, r.XID)
			if r.Commit && r.CID > recovered && ops != nil {
				resolves = append(resolves, pendingResolve{cid: r.CID, ops: ops})
			}
		case wal.KindDecision:
			sum.Decisions[r.XID] = r.Commit
		}
		return nil
	})
	if err != nil {
		return 0, nil, wal.End{}, err
	}
	sort.Slice(resolves, func(i, j int) bool { return resolves[i].cid < resolves[j].cid })
	applyResolvesBelow := func(bound ts.CID) error {
		for len(resolves) > 0 && resolves[0].cid < bound {
			pr := resolves[0]
			resolves = resolves[1:]
			for _, op := range pr.ops {
				if err := replayOp(cat, op); err != nil {
					return fmt.Errorf("replaying resolved CID %d: %w", pr.cid, err)
				}
			}
			if pr.cid > recovered {
				recovered = pr.cid
			}
		}
		return nil
	}

	// Pass 2: replay DDL and commit groups in log order.
	end, err := wal.ReadAll(dir, func(r *wal.Record) error {
		switch r.Kind {
		case wal.KindDDL:
			if cat.ByID(r.TableID) != nil {
				return nil // covered by the checkpoint
			}
			_, err := cat.Restore(r.TableID, r.TableName)
			return err
		case wal.KindGroup:
			if r.CID <= recovered {
				return nil // covered by the checkpoint
			}
			if err := applyResolvesBelow(r.CID); err != nil {
				return err
			}
			for _, op := range r.Ops {
				if err := replayOp(cat, op); err != nil {
					return fmt.Errorf("replaying CID %d: %w", r.CID, err)
				}
			}
			recovered = r.CID
		}
		return nil
	})
	if err != nil {
		return 0, nil, wal.End{}, err
	}
	if err := applyResolvesBelow(ts.CID(^uint64(0))); err != nil {
		return 0, nil, wal.End{}, err
	}
	return recovered, sum, end, nil
}

// installCheckpoint loads a checkpoint's tables, record images and RID
// allocator positions into an empty catalog, one record as it is decoded —
// at recovery and at a replica's bootstrap alike.
func installCheckpoint(cat *table.Catalog, ck *wal.CheckpointReader) error {
	var tbl *table.Table
	return ck.Each(func(id ts.TableID, name string, nextRID ts.RID) error {
		t, err := cat.Restore(id, name)
		if err != nil {
			return err
		}
		t.EnsureNextRID(nextRID)
		tbl = t
		return nil
	}, func(rid ts.RID, image []byte) error {
		rec, err := tbl.CreateRecord(rid)
		if err != nil {
			return err
		}
		rec.InstallImage(image)
		return nil
	})
}

// replayOp applies one logged operation directly to the table space.
func replayOp(cat *table.Catalog, op wal.Op) error {
	tbl := cat.ByID(op.Table)
	if tbl == nil {
		return fmt.Errorf("core: log references unknown table %d", op.Table)
	}
	switch op.Op {
	case mvcc.OpInsert:
		rec, err := tbl.CreateRecord(op.RID)
		if err != nil {
			return err
		}
		rec.InstallImage(op.Payload)
		tbl.EnsureNextRID(op.RID)
		return nil
	case mvcc.OpUpdate:
		rec := tbl.Get(op.RID)
		if rec == nil {
			return fmt.Errorf("core: log updates missing record %d/%d", op.Table, op.RID)
		}
		rec.InstallImage(op.Payload)
		return nil
	case mvcc.OpDelete:
		rec := tbl.Get(op.RID)
		if rec == nil {
			return fmt.Errorf("core: log deletes missing record %d/%d", op.Table, op.RID)
		}
		rec.DropRecord()
		return nil
	default:
		return fmt.Errorf("core: log contains unknown op %d", op.Op)
	}
}

// Checkpoint streams a transactionally consistent table-space snapshot to
// disk and prunes the log segments it covers. The sequence is: rotate the
// log, fence on the commit queue (so every record in the closed segments is
// published), snapshot at the then-current commit timestamp, write each
// visible image straight into the checkpoint's temp file, release the
// snapshot, then sync and rename the file and drop the covered segments. The
// snapshot lives only as long as the table walk: the flush, the fsync and
// the rename hold back no collector.
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return ErrNoPersistence
	}
	if err := db.fail.check(); err != nil {
		return err
	}
	closedSeq, err := db.log.Rotate()
	if err != nil {
		// A failed rotation latches the WAL (see wal.Log); mirror it on the
		// engine so writers stop before piling onto a dead log.
		db.fail.enter(err)
		return err
	}
	if err := db.m.Barrier(); err != nil {
		return err
	}
	snap := db.m.AcquireSnapshot(txn.KindStatement, nil)
	at := snap.TS()
	ck, err := wal.CreateCheckpoint(db.persistDir, at)
	if err != nil {
		snap.Release()
		return err
	}
	defer ck.Abort()
	var traversed int64
	for _, tbl := range db.cat.Tables() {
		next := tbl.MaxRID()
		ck.Table(tbl.ID, tbl.Name, next)
		tbl.Range(1, next, func(rec *table.Record) bool {
			if img, ok := db.readRec(rec, at, nil, &traversed); ok {
				ck.Record(rec.RID(), img)
			}
			return true
		})
		ck.EndTable()
	}
	snap.Release()
	db.count(0, traversed)
	if err := ck.Commit(); err != nil {
		return err
	}
	// The checkpoint covers every closed segment, but a replica still
	// catching up from disk may need some of them: the retention hook
	// reports the lowest segment sequence any replica still reads, and
	// pruning stops below it.
	through := closedSeq
	if low, ok := db.segmentRetention(); ok {
		if low == 0 {
			return nil // a bootstrapping replica needs everything
		}
		if low <= through {
			through = low - 1
		}
	}
	return wal.RemoveSegmentsThrough(db.persistDir, through)
}

// logDDL records a table creation when persistence is on.
func (db *DB) logDDL(id ts.TableID, name string) error {
	if db.log == nil {
		return nil
	}
	return db.log.Append(&wal.Record{Kind: wal.KindDDL, TableID: id, TableName: name})
}
