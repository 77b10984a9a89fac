// Package hybridgc is an in-memory MVCC row store with hybrid garbage
// collection, reproducing "Hybrid Garbage Collection for Multi-Version
// Concurrency Control in SAP HANA" (Lee et al., SIGMOD 2016).
//
// The engine keeps the oldest image of every row in a table space and newer
// images as version chains in a version space, reachable through a central
// RID hash table. Transactions commit in groups sharing one commit ID
// (CID), published with a single atomic store on the group's commit
// context. Reads run under snapshot isolation — per statement (Stmt-SI, the
// default) or per transaction (Trans-SI) — and obsolete versions are
// reclaimed by HybridGC, the combination of three collectors:
//
//   - GT, the group timestamp collector, removes whole commit groups below
//     the minimum active snapshot timestamp by scanning the ordered group
//     list;
//   - TG, the table collector, confines long-lived snapshots with known
//     table scope to per-table snapshot trackers so they stop blocking
//     reclamation of unrelated tables;
//   - SI, the interval collector, removes versions in the middle of chains
//     whose visible interval [cid, nextCid) contains no active snapshot
//     timestamp, using a merge-based single pass (the paper's Algorithm 1).
//
// Quickstart:
//
//	db := hybridgc.Open(hybridgc.Config{GC: hybridgc.DefaultPeriods(), AutoGC: true})
//	defer db.Close()
//	tid, _ := db.CreateTable("ACCOUNTS")
//	var rid hybridgc.RID
//	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
//		var err error
//		rid, err = tx.Insert(tid, []byte("balance=100"))
//		return err
//	})
//	db.Exec(hybridgc.StmtSI, nil, func(tx *hybridgc.Tx) error {
//		return tx.Update(tid, rid, []byte("balance=90"))
//	})
//
// The subpackages under internal implement the substrates; this package is
// the stable surface: the DB engine, transactions, cursors with incremental
// FETCH, engine statistics, and handles on the garbage collectors for
// manual scheduling and experiments.
package hybridgc

import (
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Core engine types.
type (
	// DB is one in-memory MVCC database instance.
	DB = core.DB
	// Config tunes a DB instance.
	Config = core.Config
	// Tx is a transaction handle.
	Tx = core.Tx
	// Cursor is a client-held incremental-fetch cursor pinning a snapshot.
	Cursor = core.Cursor
	// FetchStats reports the cost of one cursor Fetch.
	FetchStats = core.FetchStats
	// Stats is a point-in-time view of engine indicators.
	Stats = core.Stats
)

// Identifier domains.
type (
	// TableID identifies a catalog table.
	TableID = ts.TableID
	// RID identifies a record within a table.
	RID = ts.RID
	// PartitionID identifies one partition of a partitioned table.
	PartitionID = ts.PartitionID
	// CID is a commit identifier / snapshot timestamp.
	CID = ts.CID
)

// Transaction types.
type (
	// Isolation selects Stmt-SI or Trans-SI.
	Isolation = txn.Isolation
	// TxnConfig tunes group commit.
	TxnConfig = txn.Config
)

// Robustness types: graceful degradation under version-space pressure.
type (
	// VersionBudget bounds the version space with soft/hard watermarks; see
	// the degradation ladder in DESIGN.md.
	VersionBudget = core.VersionBudget
	// PressureLevel is the ladder's current rung.
	PressureLevel = core.PressureLevel
	// PressureStats is a point-in-time view of the budget controller.
	PressureStats = core.PressureStats
)

// Degradation ladder rungs.
const (
	PressureNormal       = core.PressureNormal
	PressureSoft         = core.PressureSoft
	PressureBackpressure = core.PressureBackpressure
	PressureEvict        = core.PressureEvict
)

// Garbage collection types.
type (
	// Persistence arms write-ahead logging and checkpointing.
	Persistence = core.Persistence
	// GCPeriods enables GT, TG and SI (zero disables) and bounds how long
	// each sits idle; under load the collector loop is woken by work.
	GCPeriods = gc.Periods
	// HybridGC is the combined collector with scheduling controls.
	HybridGC = gc.Hybrid
	// GCRunStats reports one collector invocation.
	GCRunStats = gc.RunStats
	// Collector is one garbage collection strategy.
	Collector = gc.Collector
)

// Isolation levels.
const (
	// StmtSI is statement-level snapshot isolation (the default).
	StmtSI = txn.StmtSI
	// TransSI is transaction-level snapshot isolation.
	TransSI = txn.TransSI
)

// Errors surfaced by the engine.
var (
	ErrTableNotFound  = core.ErrTableNotFound
	ErrRecordNotFound = core.ErrRecordNotFound
	ErrWriteConflict  = core.ErrWriteConflict
	ErrOutOfScope     = core.ErrOutOfScope
	ErrCursorClosed   = core.ErrCursorClosed
	ErrSnapshotKilled = core.ErrSnapshotKilled
	// ErrVersionPressure rejects a write under sustained version-space
	// pressure; transient — retry (see Retry).
	ErrVersionPressure = core.ErrVersionPressure
	// ErrFailStop rejects all writes after an unrecoverable durability
	// failure; reads keep working, a restart recovers.
	ErrFailStop = core.ErrFailStop
)

// IsTransient reports whether err is worth retrying (write conflicts,
// version pressure).
func IsTransient(err error) bool { return core.IsTransient(err) }

// Retry runs fn with exponential backoff while it fails transiently.
func Retry(attempts int, base time.Duration, fn func() error) error {
	return core.Retry(attempts, base, fn)
}

// Open creates a database; with Config.Persistence set it recovers from the
// directory's checkpoint and log first.
func Open(cfg Config) (*DB, error) { return core.Open(cfg) }

// MustOpen is Open for in-memory configurations that cannot fail; it panics
// on error. Convenient in examples and tests.
func MustOpen(cfg Config) *DB {
	db, err := core.Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// DefaultPeriods returns the paper's GT/TG/SI period configuration at 1/10
// time scale (100 ms / 300 ms / 1 s).
func DefaultPeriods() GCPeriods { return gc.DefaultPeriods() }

// NewSingleTimestamp builds the conventional ST baseline collector over a
// database, for experiments comparing the taxonomy's quadrants.
func NewSingleTimestamp(db *DB) Collector { return gc.NewSingleTimestamp(db.Manager()) }

// NewGroupInterval builds the GI extension collector over a database.
func NewGroupInterval(db *DB) Collector { return gc.NewGroupInterval(db.Manager()) }
