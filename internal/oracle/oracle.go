// Package oracle is a randomized model checker for the engine: it executes
// a random single-threaded history of inserts, updates, deletes, aborts,
// snapshot opens/closes and garbage collection passes, while maintaining an
// independent sequential model of what every commit made visible. After
// every step it validates point reads and full scans at randomly chosen
// active snapshots against the model — so any collector reclaiming a
// version some snapshot still needs, or any visibility bug in the engine,
// surfaces as a concrete divergence.
package oracle

import (
	"fmt"
	"math/rand"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Oracle drives one checked history.
type Oracle struct {
	db  *core.DB
	tid ts.TableID
	r   *rand.Rand

	model *Model
	rids  []ts.RID

	snaps      []*heldSnap
	collectors []gc.Collector

	// Steps executed, for reporting.
	Steps int
	// Reclaimed accumulates versions collected during the run.
	Reclaimed int64
}

type heldSnap struct {
	s  *txn.Snapshot
	at ts.CID
	// parts restricts which rows this snapshot may access (nil = whole
	// table). The oracle only validates reads the snapshot is entitled to:
	// once the table collector confines a partition-scoped snapshot,
	// versions outside its partitions may legitimately be reclaimed past
	// its timestamp.
	parts map[ts.PartitionID]bool
}

// covers reports whether the snapshot's scope includes the record.
func (h *heldSnap) covers(o *Oracle, rid ts.RID) bool {
	if h.parts == nil {
		return true
	}
	p, ok := o.db.PartitionOf(ts.RecordKey{Table: o.tid, RID: rid})
	return ok && h.parts[p]
}

// New builds an oracle over a fresh database. Collection never runs
// periodically; the oracle invokes collectors as explicit random steps so
// every divergence is attributable.
func New(seed int64) (*Oracle, error) {
	db, err := core.Open(core.Config{
		HashBuckets:        1 << 8,          // tiny table: exercise bucket collisions too
		LongLivedThreshold: time.Nanosecond, // every held snapshot is TG-eligible
	})
	if err != nil {
		return nil, err
	}
	tid, err := db.CreateTable("ORACLE")
	if err != nil {
		db.Close()
		return nil, err
	}
	// The table is partitioned so the schedule also exercises
	// partition-scoped snapshots and per-partition horizons.
	if err := db.SetTablePartitions(tid, oraclePartitions); err != nil {
		db.Close()
		return nil, err
	}
	m := db.Manager()
	o := &Oracle{
		db:    db,
		tid:   tid,
		r:     rand.New(rand.NewSource(seed)),
		model: NewModel(),
		collectors: []gc.Collector{
			gc.NewSingleTimestamp(m),
			gc.NewGroupTimestamp(m),
			db.GC().TG, // partition-resolver wired by the engine
			gc.NewInterval(m),
			gc.NewGroupInterval(m),
			db.GC(), // the full hybrid pass
		},
	}
	return o, nil
}

// oraclePartitions is the partition count of the checked table.
const oraclePartitions = 3

// Close releases held snapshots and the database.
func (o *Oracle) Close() {
	for _, h := range o.snaps {
		h.s.Release()
	}
	o.snaps = nil
	o.db.Close()
}

// modelRead answers a point read from the model.
func (o *Oracle) modelRead(rid ts.RID, at ts.CID) (string, bool) {
	return o.model.Read(ts.RecordKey{Table: o.tid, RID: rid}, at)
}

// engineRead answers the same read from the engine.
func (o *Oracle) engineRead(rid ts.RID, at ts.CID) (string, bool, error) {
	// Reads at an explicit timestamp go through a scoped helper transaction
	// whose statement snapshot is replaced by direct record resolution: the
	// engine exposes timestamped reads via cursors only, so the oracle reads
	// through ReadAt below.
	img, ok := o.db.ReadAt(o.tid, rid, at)
	return string(img), ok, nil
}

// Step executes one random action followed by validation. It returns an
// error on any divergence.
func (o *Oracle) Step() error {
	o.Steps++
	switch n := o.r.Intn(100); {
	case n < 30:
		if err := o.doInsert(); err != nil {
			return err
		}
	case n < 60:
		if err := o.doUpdate(); err != nil {
			return err
		}
	case n < 68:
		if err := o.doDelete(); err != nil {
			return err
		}
	case n < 76:
		if err := o.doAbortedTxn(); err != nil {
			return err
		}
	case n < 84:
		o.doSnapshotChurn()
	default:
		c := o.collectors[o.r.Intn(len(o.collectors))]
		st := c.Collect()
		o.Reclaimed += st.Versions
	}
	return o.validate()
}

// Run executes steps actions.
func (o *Oracle) Run(steps int) error {
	for i := 0; i < steps; i++ {
		if err := o.Step(); err != nil {
			return fmt.Errorf("step %d: %w", o.Steps, err)
		}
	}
	return nil
}

func (o *Oracle) commitCID() ts.CID { return o.db.Manager().CurrentTS() }

func (o *Oracle) doInsert() error {
	img := fmt.Sprintf("v%d", o.Steps)
	var rid ts.RID
	err := o.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		var err error
		rid, err = tx.Insert(o.tid, []byte(img))
		return err
	})
	if err != nil {
		return err
	}
	o.model.Apply(ts.RecordKey{Table: o.tid, RID: rid}, o.commitCID(), img)
	o.rids = append(o.rids, rid)
	return nil
}

// liveRID picks a random record that is live in the model's latest state.
func (o *Oracle) liveRID() (ts.RID, bool) {
	if len(o.rids) == 0 {
		return 0, false
	}
	for try := 0; try < 8; try++ {
		rid := o.rids[o.r.Intn(len(o.rids))]
		if _, ok := o.modelRead(rid, ts.Infinity-1); ok {
			return rid, true
		}
	}
	return 0, false
}

func (o *Oracle) doUpdate() error {
	rid, ok := o.liveRID()
	if !ok {
		return o.doInsert()
	}
	img := fmt.Sprintf("v%d", o.Steps)
	err := o.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		return tx.Update(o.tid, rid, []byte(img))
	})
	if err != nil {
		return err
	}
	o.model.Apply(ts.RecordKey{Table: o.tid, RID: rid}, o.commitCID(), img)
	return nil
}

func (o *Oracle) doDelete() error {
	rid, ok := o.liveRID()
	if !ok {
		return nil
	}
	err := o.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		return tx.Delete(o.tid, rid)
	})
	if err != nil {
		return err
	}
	o.model.Apply(ts.RecordKey{Table: o.tid, RID: rid}, o.commitCID(), "")
	return nil
}

// doAbortedTxn writes several versions then aborts; the model is untouched.
func (o *Oracle) doAbortedTxn() error {
	tx := o.db.Begin(txn.StmtSI)
	defer tx.Abort()
	if _, err := tx.Insert(o.tid, []byte("doomed")); err != nil {
		return err
	}
	if rid, ok := o.liveRID(); ok {
		if err := tx.Update(o.tid, rid, []byte("doomed")); err != nil && err != core.ErrWriteConflict {
			return err
		}
	}
	return nil
}

// doSnapshotChurn opens or closes a long-lived snapshot. Opened snapshots
// randomly declare a table scope or a partition scope (the finer §4.3
// granularity); the model makes no distinction — visibility at the pinned
// timestamp must hold either way for the rows the snapshot may access, and
// the oracle only validates snapshots against rows in their scope.
func (o *Oracle) doSnapshotChurn() {
	if len(o.snaps) < 5 && o.r.Intn(2) == 0 {
		var s *txn.Snapshot
		var parts map[ts.PartitionID]bool
		if o.r.Intn(2) == 0 {
			p := ts.PartitionID(o.r.Intn(oraclePartitions))
			s = o.db.Manager().AcquireSnapshotPartitions(txn.KindCursor, o.tid, []ts.PartitionID{p})
			parts = map[ts.PartitionID]bool{p: true}
		} else {
			s = o.db.Manager().AcquireSnapshot(txn.KindCursor, []ts.TableID{o.tid})
		}
		o.snaps = append(o.snaps, &heldSnap{s: s, at: s.TS(), parts: parts})
		return
	}
	if len(o.snaps) > 0 {
		i := o.r.Intn(len(o.snaps))
		o.snaps[i].s.Release()
		o.snaps = append(o.snaps[:i], o.snaps[i+1:]...)
	}
}

// validate compares engine reads against the model at every held snapshot
// and at "now", over a random sample of records, plus a scan check. Reads
// are only validated within each snapshot's declared scope: that is the
// entitlement the engine guarantees (and enforcing it is what lets the
// table collector reclaim outside the scope).
func (o *Oracle) validate() error {
	now := &heldSnap{at: o.commitCID()}
	for _, h := range append([]*heldSnap{now}, o.snaps...) {
		for probe := 0; probe < 6 && len(o.rids) > 0; probe++ {
			rid := o.rids[o.r.Intn(len(o.rids))]
			if !h.covers(o, rid) {
				continue
			}
			wantImg, wantOK := o.modelRead(rid, h.at)
			gotImg, gotOK, err := o.engineRead(rid, h.at)
			if err != nil {
				return err
			}
			if gotOK != wantOK || (gotOK && gotImg != wantImg) {
				return fmt.Errorf("read(rid=%d, at=%d): engine %q/%v, model %q/%v",
					rid, h.at, gotImg, gotOK, wantImg, wantOK)
			}
		}
		// Row-count check over the rows the snapshot covers.
		wantCount, gotCount := 0, 0
		for _, rid := range o.rids {
			if !h.covers(o, rid) {
				continue
			}
			if _, ok := o.modelRead(rid, h.at); ok {
				wantCount++
			}
			if _, ok := o.db.ReadAt(o.tid, rid, h.at); ok {
				gotCount++
			}
		}
		if gotCount != wantCount {
			return fmt.Errorf("scan(at=%d): engine %d rows, model %d", h.at, gotCount, wantCount)
		}
	}
	return nil
}
