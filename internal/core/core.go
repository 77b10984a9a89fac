// Package core is the database engine: it assembles the table space, the
// version space, the transaction manager and HybridGC into the public API —
// an in-memory MVCC row store in the shape of the SAP HANA row store the
// paper describes, supporting statement-level and transaction-level snapshot
// isolation, long-lived cursors with incremental FETCH, declared-table
// transactions, and pluggable garbage collection.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// Errors returned by the engine.
var (
	ErrTableNotFound  = errors.New("core: table not found")
	ErrRecordNotFound = errors.New("core: record not found")
	ErrOutOfScope     = errors.New("core: table not declared by this transaction")
	ErrCursorClosed   = errors.New("core: cursor is closed")
	ErrClosed         = errors.New("core: database closed")
	// ErrSnapshotKilled reports that the version-budget pressure ladder
	// evicted the operation's snapshot because it pinned versions the space
	// could not hold — the paper's workaround for garbage collection blocked
	// by long-lived cursors or forgotten Trans-SI transactions (§1).
	ErrSnapshotKilled = errors.New("core: snapshot evicted under version-space pressure")
	// ErrWriteConflict re-exports the transaction layer's conflict error.
	ErrWriteConflict = txn.ErrWriteConflict
	// ErrReadOnly reports a write on a read-only engine — a replica applying
	// a replication stream. Replicated writes enter through the Apply* path,
	// which bypasses this gate.
	ErrReadOnly = errors.New("core: database is read-only")
)

// Config tunes a DB instance.
type Config struct {
	// HashBuckets sizes the RID hash table (<=0 selects the default).
	HashBuckets int
	// Txn configures group commit.
	Txn txn.Config
	// GC enables the collectors and sets how long each may sit idle; a zero
	// period disables the corresponding collector. The collector loop only
	// runs with AutoGC or a VersionBudget, or once GC().Start is called.
	GC gc.Periods
	// LongLivedThreshold is the table collector's snapshot age cutoff
	// (<=0 selects the default).
	LongLivedThreshold time.Duration
	// AutoGC starts the collector loop immediately on Open.
	AutoGC bool
	// Persistence, when non-nil, arms write-ahead logging and checkpointing
	// (§2.1's common persistency). Open recovers the table space from the
	// directory's checkpoint and log before serving.
	Persistence *Persistence
	// ReadOnly opens the engine as a replica target: every public write path
	// (CreateTable, Insert, Update, Delete) fails with ErrReadOnly, while the
	// replication Apply* methods still mutate state. Reads, snapshots,
	// cursors and garbage collection are unaffected.
	ReadOnly bool
	// VersionBudget, when its watermarks are set, bounds the version space:
	// over the soft watermark the collector loop's passes are the full one,
	// a full pass that cannot get back under it applies writer backpressure
	// (ErrVersionPressure after a bounded wait), and crossing the hard
	// watermark, or 200 ms (evictAfter) over soft, evicts the oldest
	// pinning snapshots (ErrSnapshotKilled for their owners). The graceful
	// alternative to Figure 2's unbounded growth.
	VersionBudget VersionBudget
}

// DB is one in-memory MVCC database instance.
type DB struct {
	// Every operation reads these; they are written only by Open.
	cat      *table.Catalog
	space    *mvcc.Space
	m        *txn.Manager
	hybrid   *gc.Hybrid
	fail     *failState
	pressure *pressure // the version-budget ladder, nil when unconfigured
	readOnly bool

	// The pad keeps the counters below off the line(s) above. A transaction
	// adds its statements and traversal steps once, when it finishes (Tx);
	// a cursor once per fetch.
	_          [64]byte
	statements atomic.Int64
	traversed  atomic.Int64
	closed     atomic.Bool

	log        *wal.Log
	persistDir string

	// recovery is the two-phase-commit state found in the log at Open, nil
	// without persistence. The shard cluster consumes it to settle in-doubt
	// cross-shard transactions before serving.
	recovery *RecoverySummary

	// retention, when set, lower-bounds which log segments Checkpoint may
	// prune: it returns the lowest segment sequence still needed (by the
	// slowest replica) and whether a constraint exists at all.
	retentionMu sync.Mutex
	retention   func() (lowestSeg uint64, ok bool)
}

// Open creates a database. With Persistence configured it first recovers the
// table space from the directory's checkpoint and log, then resumes logging.
func Open(cfg Config) (*DB, error) {
	space := mvcc.NewSpace(cfg.HashBuckets)
	cat := table.NewCatalog()

	// The fail-stop latch is allocated before the manager because the
	// durability-failure hook goes into cfg.Txn, which NewManager consumes.
	fail := &failState{}

	var lg *wal.Log
	var persistDir string
	var recovered ts.CID
	var recoverySum *RecoverySummary
	if p := cfg.Persistence; p != nil {
		var end wal.End
		var err error
		recovered, recoverySum, end, err = recoverInto(cat, p.Dir)
		if err != nil {
			return nil, fmt.Errorf("core: recovery: %w", err)
		}
		lg, err = wal.Open(wal.Options{Dir: p.Dir, Sync: p.Sync}, end)
		if err != nil {
			return nil, err
		}
		cfg.Txn.CommitLogger = &walLogger{log: lg}
		cfg.Txn.OnDurabilityFailure = fail.enter
		persistDir = p.Dir
	}

	m := txn.NewManager(space, sts.NewRegistry(), cfg.Txn)
	if recovered > 0 {
		m.SetCommitTS(recovered)
	}
	db := &DB{
		cat:        cat,
		space:      space,
		m:          m,
		hybrid:     gc.NewHybrid(m, cfg.GC, cfg.LongLivedThreshold),
		log:        lg,
		persistDir: persistDir,
		fail:       fail,
		readOnly:   cfg.ReadOnly,
		recovery:   recoverySum,
	}
	db.hybrid.TG.Resolver = db.partitionResolver
	if cfg.VersionBudget.fill() {
		db.pressure = &pressure{db: db, budget: cfg.VersionBudget}
		db.hybrid.Ladder = db.pressure
	}
	if cfg.AutoGC || db.pressure != nil {
		db.hybrid.Start()
	}
	return db, nil
}

// Close stops garbage collection and the transaction manager. Idempotent.
func (db *DB) Close() {
	if !db.closed.CompareAndSwap(false, true) {
		return
	}
	db.hybrid.Stop()
	db.m.Close()
	if db.log != nil {
		// The manager is closed: no commit can log anymore.
		_ = db.log.Close()
	}
}

// GC returns the database's hybrid garbage collector for manual invocation
// or scheduling control.
func (db *DB) GC() *gc.Hybrid { return db.hybrid }

// Manager exposes the transaction manager (benchmarks drive alternative
// collectors through it).
func (db *DB) Manager() *txn.Manager { return db.m }

// Space exposes the version space for monitoring.
func (db *DB) Space() *mvcc.Space { return db.space }

// ReadOnly reports whether the engine rejects public writes (replica mode).
func (db *DB) ReadOnly() bool { return db.readOnly }

// WAL exposes the write-ahead log, or nil without persistence. The
// replication source reads it through a cursor.
func (db *DB) WAL() *wal.Log { return db.log }

// PersistDir returns the persistence directory ("" without persistence).
func (db *DB) PersistDir() string { return db.persistDir }

// SetSegmentRetention installs (or, with nil, removes) the hook that
// lower-bounds log-segment pruning: Checkpoint keeps every segment with
// sequence >= the returned lowest-needed value while ok is true, so segment
// retention never outruns the slowest replica still catching up from disk.
func (db *DB) SetSegmentRetention(fn func() (lowestSeg uint64, ok bool)) {
	db.retentionMu.Lock()
	db.retention = fn
	db.retentionMu.Unlock()
}

// segmentRetention consults the hook.
func (db *DB) segmentRetention() (uint64, bool) {
	db.retentionMu.Lock()
	fn := db.retention
	db.retentionMu.Unlock()
	if fn == nil {
		return 0, false
	}
	return fn()
}

// CreateTable registers a new table and returns its ID. With persistence on
// the DDL is logged before the table becomes usable.
func (db *DB) CreateTable(name string) (ts.TableID, error) {
	if db.readOnly {
		return 0, ErrReadOnly
	}
	if err := db.fail.check(); err != nil {
		return 0, err
	}
	t, err := db.cat.Create(name)
	if err != nil {
		return 0, err
	}
	if err := db.logDDL(t.ID, name); err != nil {
		// The table exists in memory but not in the log: if the engine kept
		// going, a restart would lose it while commits against it survived.
		// Latch fail-stop so nothing can write to it (or anything else).
		db.fail.enter(err)
		return 0, fmt.Errorf("core: logging DDL for %q: %w", name, err)
	}
	return t.ID, nil
}

// SetTablePartitions declares a table partitioned into n parts (n >= 2):
// records map to partitions round-robin by RID, partition-pruned cursors
// can restrict their snapshot scope to partitions, and the table collector
// reclaims against per-partition horizons (§4.3's finer-granular semantic
// optimization).
func (db *DB) SetTablePartitions(tid ts.TableID, n int) error {
	tbl, err := db.tableByID(tid)
	if err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("core: partition count %d < 2", n)
	}
	tbl.SetPartitions(n)
	return nil
}

// TablePartitions returns a table's partition count (0 = unpartitioned or
// unknown table).
func (db *DB) TablePartitions(tid ts.TableID) int {
	if tbl := db.cat.ByID(tid); tbl != nil {
		return tbl.Partitions()
	}
	return 0
}

// PartitionOf reports a record's partition when its table is partitioned.
func (db *DB) PartitionOf(key ts.RecordKey) (ts.PartitionID, bool) {
	return db.partitionResolver(key)
}

// partitionResolver maps records of partitioned tables to their partition
// for the table collector.
func (db *DB) partitionResolver(key ts.RecordKey) (ts.PartitionID, bool) {
	tbl := db.cat.ByID(key.Table)
	if tbl == nil || tbl.Partitions() == 0 {
		return 0, false
	}
	return tbl.PartitionOf(key.RID), true
}

// TableID resolves a table name, returning 0 when absent.
func (db *DB) TableID(name string) ts.TableID {
	if t := db.cat.ByName(name); t != nil {
		return t.ID
	}
	return 0
}

// TableIDs resolves several table names at once (convenience for declaring
// transaction scopes). Unknown names yield an error.
func (db *DB) TableIDs(names ...string) ([]ts.TableID, error) {
	out := make([]ts.TableID, len(names))
	for i, n := range names {
		id := db.TableID(n)
		if id == 0 {
			return nil, fmt.Errorf("%w: %s", ErrTableNotFound, n)
		}
		out[i] = id
	}
	return out, nil
}

// Tables lists the catalog's table names in creation order.
func (db *DB) Tables() []string {
	ts := db.cat.Tables()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

func (db *DB) tableByID(id ts.TableID) (*table.Table, error) {
	if t := db.cat.ByID(id); t != nil {
		return t, nil
	}
	return nil, ErrTableNotFound
}

// TableMaxRID returns the highest RID ever allocated in the table — the
// upper bound of the dense RID range scans walk.
func (db *DB) TableMaxRID(tid ts.TableID) (ts.RID, error) {
	tbl, err := db.tableByID(tid)
	if err != nil {
		return 0, err
	}
	return tbl.MaxRID(), nil
}

// ObserveTableWrites installs fn as the table's write observer: it fires on
// every table-space mutation of a record (version-chain flag flips, image
// installs by garbage collection, drops) with the affected RID. The HTAP
// lane uses it for sticky dirty tracking over chunk-covered rows. fn runs
// under the version-chain latch — it must be cheap and must not re-enter
// the engine. nil removes the observer.
func (db *DB) ObserveTableWrites(tid ts.TableID, fn func(ts.RID)) error {
	tbl, err := db.tableByID(tid)
	if err != nil {
		return err
	}
	tbl.SetWriteObserver(fn)
	return nil
}

// RecordState probes one record's migration eligibility: ok reports the
// record exists (not a hole, not dropped); versioned reports it still has a
// version chain — some registered snapshot may need an older version, so
// the HTAP migrator must not treat its table-space image as final. For a
// settled record (ok && !versioned) img is the single retained image, the
// version every registered snapshot sees.
func (db *DB) RecordState(tid ts.TableID, rid ts.RID) (img []byte, versioned, ok bool) {
	tbl := db.cat.ByID(tid)
	if tbl == nil {
		return nil, false, false
	}
	rec := tbl.Get(rid)
	if rec == nil || rec.Dropped() {
		return nil, false, false
	}
	if rec.Versioned() {
		return nil, true, true
	}
	img = rec.Image()
	if img == nil {
		// The row's INSERT has not settled out of the version space yet and
		// the chain is gone (rolled back) — nothing visible.
		return nil, false, false
	}
	return img, false, true
}

// Stats is a point-in-time view of the engine, covering the indicators the
// paper's evaluation plots: active versions, hash collision state,
// statement throughput input, snapshot population and the commit timestamp
// range of Figure 2.
type Stats struct {
	Statements        int64
	VersionsLive      int64
	VersionsLiveBytes int64
	VersionsCreated   int64
	VersionsReclaimed int64
	VersionsMigrated  int64
	VersionsTraversed int64
	Hash              mvcc.HashStats
	// ActiveSnapshots, CurrentCID, GlobalHorizon and ActiveCIDRange are read
	// from one view, so they describe one instant: the announcements (this
	// engine's snapshots and any replica's horizon pin), the commit
	// timestamp the view was bounded by, the oldest announcement or
	// CurrentCID+1 when there is none, and — the "Active Commit ID Range"
	// indicator of Figure 2 — CurrentCID minus that oldest announcement.
	ActiveSnapshots int
	CurrentCID      ts.CID
	GlobalHorizon   ts.CID
	ActiveCIDRange  ts.CID
	Txn             txn.Stats
	GroupListLen    int
	// FailStop reports the engine latched into read-only mode after a
	// durability failure.
	FailStop bool
	// Pressure is the version-budget ladder's state (zero when no
	// VersionBudget is configured).
	Pressure PressureStats
}

// Stats gathers current engine statistics.
func (db *DB) Stats() Stats {
	view := db.m.View()
	st := Stats{
		Statements:        db.statements.Load(),
		VersionsLive:      db.space.Live(),
		VersionsLiveBytes: db.space.LiveBytes(),
		VersionsCreated:   db.space.Created(),
		VersionsReclaimed: db.space.ReclaimedTotal(),
		VersionsMigrated:  db.space.MigratedTotal(),
		VersionsTraversed: db.traversed.Load(),
		Hash:              db.space.HT.Stats(),
		ActiveSnapshots:   view.Len(),
		CurrentCID:        view.Bound(),
		GlobalHorizon:     view.Horizon(),
		Txn:               db.m.Stats(),
		GroupListLen:      db.space.Groups.Len(),
		FailStop:          db.fail.failed.Load(),
		Pressure:          db.PressureStats(),
	}
	if view.Len() > 0 {
		st.ActiveCIDRange = st.CurrentCID - st.GlobalHorizon
	}
	return st
}

// MergeStats folds per-shard statistics into the cluster-wide view — the one
// place the rule is written: counters and sizes sum; CurrentCID,
// ActiveCIDRange, the longest bucket, the last CID and the pressure rung are
// the maximum; GlobalHorizon is the minimum; FailStop and Pressure.Enabled
// report any shard; the ratios are recomputed over the summed terms. One
// shard merges to itself.
func MergeStats(shards []Stats) Stats {
	if len(shards) == 0 {
		return Stats{}
	}
	out := shards[0]
	for _, st := range shards[1:] {
		out.Statements += st.Statements
		out.VersionsLive += st.VersionsLive
		out.VersionsLiveBytes += st.VersionsLiveBytes
		out.VersionsCreated += st.VersionsCreated
		out.VersionsReclaimed += st.VersionsReclaimed
		out.VersionsMigrated += st.VersionsMigrated
		out.VersionsTraversed += st.VersionsTraversed
		out.ActiveSnapshots += st.ActiveSnapshots
		out.GroupListLen += st.GroupListLen
		out.CurrentCID = max(out.CurrentCID, st.CurrentCID)
		out.ActiveCIDRange = max(out.ActiveCIDRange, st.ActiveCIDRange)
		out.GlobalHorizon = min(out.GlobalHorizon, st.GlobalHorizon)
		out.FailStop = out.FailStop || st.FailStop

		h, sh := &out.Hash, st.Hash
		h.Buckets += sh.Buckets
		h.Chains += sh.Chains
		h.OccupiedBuckets += sh.OccupiedBuckets
		h.MaxBucketLen = max(h.MaxBucketLen, sh.MaxBucketLen)
		h.Lookups += sh.Lookups
		h.ExtraHops += sh.ExtraHops

		t, stx := &out.Txn, st.Txn
		t.TxnsCommitted += stx.TxnsCommitted
		t.TxnsAborted += stx.TxnsAborted
		t.GroupsCommitted += stx.GroupsCommitted
		t.Propagated += stx.Propagated
		t.LastCID = max(t.LastCID, stx.LastCID)

		p, sp := &out.Pressure, st.Pressure
		p.Enabled = p.Enabled || sp.Enabled
		p.Level = max(p.Level, sp.Level)
		p.Soft += sp.Soft
		p.Hard += sp.Hard
		p.Live += sp.Live
		p.SoftTrips += sp.SoftTrips
		p.Emergencies += sp.Emergencies
		p.Backpressured += sp.Backpressured
		p.Rejected += sp.Rejected
		p.Evicted += sp.Evicted
	}
	if len(shards) > 1 {
		out.Hash.CollisionRatio = ratio(out.Hash.Chains, int64(out.Hash.Buckets))
		out.Hash.AvgPerOccupied = ratio(out.Hash.Chains, int64(out.Hash.OccupiedBuckets))
		out.Pressure.Utilization = ratio(out.Pressure.Live, out.Pressure.Hard)
	}
	return out
}

// ratio is a/b, zero when b is not positive.
func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// count adds statements run and chain versions traversed to the engine's
// counters: a transaction's when it finishes, a cursor's per fetch, a
// diagnostic read's per call.
func (db *DB) count(stmts, traversed int64) {
	if stmts != 0 {
		db.statements.Add(stmts)
	}
	if traversed != 0 {
		db.traversed.Add(traversed)
	}
}

// StatementCount returns the number of statements run so far (the
// throughput numerator of Figures 12, 18 and 19). A transaction's statements
// count when it commits or aborts, a cursor's fetch when it returns.
func (db *DB) StatementCount() int64 { return db.statements.Load() }

// ReadAt resolves one record's image at an explicit snapshot timestamp,
// without registering a snapshot. The timestamp must be protected by the
// caller — either a snapshot the caller still holds, or the current commit
// timestamp — otherwise garbage collection may concurrently reshape what
// the read observes. Intended for diagnostics and the model-checking
// harness; applications read through transactions and cursors.
func (db *DB) ReadAt(tid ts.TableID, rid ts.RID, at ts.CID) ([]byte, bool) {
	tbl := db.cat.ByID(tid)
	if tbl == nil {
		return nil, false
	}
	var traversed int64
	img, ok := db.readRecord(tbl, rid, at, nil, &traversed)
	db.count(0, traversed)
	return img, ok
}

// ScanCountAt counts the records visible at an explicit snapshot timestamp.
// The same protection caveat as ReadAt applies.
func (db *DB) ScanCountAt(tid ts.TableID, at ts.CID) int {
	tbl := db.cat.ByID(tid)
	if tbl == nil {
		return 0
	}
	n := 0
	var traversed int64
	tbl.ForEach(func(rec *table.Record) bool {
		if _, ok := db.readRec(rec, at, nil, &traversed); ok {
			n++
		}
		return true
	})
	db.count(0, traversed)
	return n
}

// readRecord looks rid up in the table space and resolves its image at
// snapshot timestamp at (see readRec).
func (db *DB) readRecord(tbl *table.Table, rid ts.RID, at ts.CID, own *mvcc.TransContext, traversed *int64) ([]byte, bool) {
	rec := tbl.Get(rid)
	if rec == nil {
		return nil, false
	}
	return db.readRec(rec, at, own, traversed)
}

// readRec resolves the image of one record at snapshot timestamp at,
// following §2.2's read path: consult the is_versioned flag, traverse the
// version chain latest-first (uncommitted versions owned by own are visible
// — a transaction sees its own writes), fall back to the table-space image.
// It adds the chain traversal steps (Figure 15's metric) to *traversed, which
// the caller adds to the engine's counter when its transaction, fetch or
// call ends. Scans hand it the records their page walk finds, so no RID is
// looked up twice.
func (db *DB) readRec(rec *table.Record, at ts.CID, own *mvcc.TransContext, traversed *int64) ([]byte, bool) {
	if rec.Versioned() {
		key := rec.Key()
		if ch := db.space.HT.Get(key); ch != nil {
			v, steps := ch.VisibleAs(at, own)
			*traversed += int64(steps)
			if v != nil {
				if v.Op == mvcc.OpDelete {
					return nil, false
				}
				return v.Payload, true
			}
		}
	}
	img := rec.Image()
	if img == nil {
		return nil, false
	}
	return img, true
}
