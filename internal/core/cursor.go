package core

import (
	"fmt"
	"time"

	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Cursor is a client-held result cursor over one table: it pins a statement
// snapshot from open to close and materializes rows incrementally through
// Fetch, emulating the paper's incremental query processing (§5.4). An open
// cursor is the canonical long-lived garbage collection blocker under
// Stmt-SI; because its table scope is known from the query plan, the table
// collector can confine its effect to that table.
type Cursor struct {
	db   *DB
	tbl  *table.Table
	snap *txn.Snapshot
	// parts, when non-nil, restricts the scan to these partitions (the
	// pruning result that also narrowed the snapshot's scope).
	parts map[ts.PartitionID]bool

	nextRID ts.RID
	closed  bool
}

// OpenCursor opens a full-scan cursor over the table. The cursor's snapshot
// is acquired now and held until Close.
func (db *DB) OpenCursor(tid ts.TableID) (*Cursor, error) {
	tbl, err := db.tableByID(tid)
	if err != nil {
		return nil, err
	}
	return &Cursor{
		db:      db,
		tbl:     tbl,
		snap:    db.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tid}),
		nextRID: 1,
	}, nil
}

// OpenPartitionCursor opens a cursor pruned to the given partitions of a
// partitioned table. The snapshot declares the partition scope, so the
// table collector confines its effect to exactly those partitions (§4.3's
// partition-level semantic optimization).
func (db *DB) OpenPartitionCursor(tid ts.TableID, parts ...ts.PartitionID) (*Cursor, error) {
	tbl, err := db.tableByID(tid)
	if err != nil {
		return nil, err
	}
	if tbl.Partitions() == 0 {
		return nil, fmt.Errorf("core: table %d is not partitioned", tid)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no partitions selected")
	}
	set := make(map[ts.PartitionID]bool, len(parts))
	for _, p := range parts {
		if int(p) >= tbl.Partitions() {
			return nil, fmt.Errorf("core: partition %d out of range (table has %d)", p, tbl.Partitions())
		}
		set[p] = true
	}
	return &Cursor{
		db:      db,
		tbl:     tbl,
		snap:    db.m.AcquireSnapshotPartitions(txn.KindCursor, tid, parts),
		parts:   set,
		nextRID: 1,
	}, nil
}

// SnapshotTS returns the cursor's pinned snapshot timestamp.
func (c *Cursor) SnapshotTS() ts.CID { return c.snap.TS() }

// FetchStats reports the cost of one Fetch call — the latency of Figure 14
// and the versions-traversed count of Figure 15.
type FetchStats struct {
	Rows      int
	Traversed int64
	Duration  time.Duration
}

// Fetch materializes up to n visible rows, resuming where the previous
// Fetch stopped. It returns the rows, per-call statistics, and io-style
// exhaustion via a short (possibly empty) result.
func (c *Cursor) Fetch(n int) ([][]byte, FetchStats, error) {
	if c.closed {
		return nil, FetchStats{}, ErrCursorClosed
	}
	if c.snap.Killed() {
		return nil, FetchStats{}, ErrSnapshotKilled
	}
	start := time.Now()
	at := c.snap.TS()
	var stats FetchStats
	rows := make([][]byte, 0, n)
	max := c.tbl.MaxRID()
	if n > 0 {
		exhausted := c.tbl.Range(c.nextRID, max, func(rec *table.Record) bool {
			c.nextRID = rec.RID() + 1
			if c.parts != nil && !c.parts[c.tbl.PartitionOf(rec.RID())] {
				return true // pruned partition
			}
			if img, ok := c.db.readRec(rec, at, nil, &stats.Traversed); ok {
				rows = append(rows, img)
			}
			return len(rows) < n
		})
		if exhausted {
			c.nextRID = max + 1
		}
	}
	stats.Rows = len(rows)
	stats.Duration = time.Since(start)
	c.db.count(1, stats.Traversed)
	return rows, stats, nil
}

// Exhausted reports whether the cursor has scanned past the last RID that
// existed at open time.
func (c *Cursor) Exhausted() bool {
	return c.closed || c.nextRID > c.tbl.MaxRID()
}

// Close releases the cursor's snapshot. Idempotent.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.snap.Release()
}
