// Package engine abstracts "a thing that executes transactions" away from
// the single-node database: internal/sql, internal/server and the drivers
// program against Engine, and both the single-node core.DB and the sharded
// router in internal/shard implement it. The abstract surface is
// deliberately narrow — transactions, tables, cursors, stats — while
// Shards()/Shard(i) expose the concrete per-shard engines for monitoring
// views, garbage collection control and replication, which are inherently
// per-node concerns.
package engine

import (
	"fmt"

	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Tx is one transaction on an Engine. core.Tx satisfies everything except
// InsertAt, which the Single adapter maps back to a plain Insert.
type Tx interface {
	Isolation() txn.Isolation
	SnapshotTS() ts.CID
	Get(tid ts.TableID, rid ts.RID) ([]byte, error)
	Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error
	Insert(tid ts.TableID, img []byte) (ts.RID, error)
	// InsertAt is Insert with a shard hint — the router places the record on
	// hint's shard (TPC-C's by-warehouse affinity). A single-node engine
	// ignores the hint.
	InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error)
	Update(tid ts.TableID, rid ts.RID, img []byte) error
	Delete(tid ts.TableID, rid ts.RID) error
	Commit() error
	Abort()
}

// Cursor is a long-lived snapshot scan. core.Cursor satisfies it.
type Cursor interface {
	Fetch(n int) ([][]byte, core.FetchStats, error)
	SnapshotTS() ts.CID
	Exhausted() bool
	Close()
}

// PlacementKind selects how a table's records map to shards.
type PlacementKind uint8

const (
	// PlaceInterleave blocks RIDs across shards: each shard owns Size
	// consecutive records per round. Size 1 is plain round-robin. The
	// default placement for every table.
	PlaceInterleave PlacementKind = iota
	// PlaceFixed pins every record of the table to one shard.
	PlaceFixed
	// PlaceReplicated writes every record to all shards (global RID equals
	// local RID) and reads from the transaction's anchor shard — for small
	// read-mostly tables like TPC-C's ITEM.
	PlaceReplicated
)

// Placement is a table's shard-placement policy.
type Placement struct {
	Kind PlacementKind
	// Size is the interleave block size (records per shard per round);
	// <=0 selects 1.
	Size uint64
	// Shard is the PlaceFixed target.
	Shard int
}

// blockSize normalizes the interleave block size.
func (p Placement) blockSize() uint64 {
	if p.Size == 0 || p.Size > 1<<62 {
		return 1
	}
	return p.Size
}

// GlobalRID maps shard-local RID local on the given shard to the table's
// global RID under this placement. The mapping is a bijection: interleaved
// tables block RIDs so that shard s owns global blocks s, s+shards, s+2·shards
// ... of Size records each, which makes a sequential round-robin load produce
// the same dense global RID sequence a single-node engine would assign.
// Fixed and replicated tables use the local RID verbatim.
func (p Placement) GlobalRID(shard, shards int, local ts.RID) ts.RID {
	if p.Kind != PlaceInterleave || shards <= 1 {
		return local
	}
	size := p.blockSize()
	block := (uint64(local) - 1) / size
	off := (uint64(local) - 1) % size
	return ts.RID((block*uint64(shards)+uint64(shard))*size + off + 1)
}

// ShardOf reports which shard owns the global RID under this placement.
// Replicated tables report shard 0 — every shard holds the record; readers
// may use any anchor.
func (p Placement) ShardOf(global ts.RID, shards int) int {
	switch {
	case p.Kind == PlaceFixed:
		return p.Shard
	case p.Kind != PlaceInterleave || shards <= 1:
		return 0
	}
	return int(((uint64(global) - 1) / p.blockSize()) % uint64(shards))
}

// LocalRID inverts GlobalRID: the owning shard and its local RID for a
// global RID.
func (p Placement) LocalRID(global ts.RID, shards int) (int, ts.RID) {
	if p.Kind != PlaceInterleave || shards <= 1 {
		if p.Kind == PlaceFixed {
			return p.Shard, global
		}
		return 0, global
	}
	size := p.blockSize()
	q := (uint64(global) - 1) / size
	off := (uint64(global) - 1) % size
	shard := int(q % uint64(shards))
	block := q / uint64(shards)
	return shard, ts.RID(block*size + off + 1)
}

// Engine executes transactions over one or more shards.
type Engine interface {
	// Begin starts a transaction that may touch any shard; on a sharded
	// engine, cross-shard commits go through two-phase commit.
	Begin(iso txn.Isolation, declared ...ts.TableID) Tx
	// BeginShard starts a transaction pinned to one shard — the single-shard
	// fast path, bypassing the router. Operations referencing records on
	// other shards fail.
	BeginShard(shard int, iso txn.Isolation, declared ...ts.TableID) (Tx, error)
	// Exec runs fn inside a transaction, committing on success and aborting
	// on error.
	Exec(iso txn.Isolation, declared []ts.TableID, fn func(Tx) error) error

	CreateTable(name string) (ts.TableID, error)
	TableID(name string) ts.TableID
	TableIDs(names ...string) ([]ts.TableID, error)
	Tables() []string
	TablePartitions(tid ts.TableID) int
	// SetPlacement installs a table's shard-placement policy; it must run
	// before the table receives rows. A single-node engine accepts and
	// ignores it.
	SetPlacement(tid ts.TableID, p Placement) error

	OpenCursor(tid ts.TableID) (Cursor, error)
	ReadOnly() bool
	// Stats aggregates engine statistics across shards by core.MergeStats
	// (counters sum; CurrentCID is the maximum, GlobalHorizon the minimum).
	Stats() core.Stats

	// Shards reports the shard count (1 for a single-node engine).
	Shards() int
	// Shard returns shard i's concrete engine — the escape hatch for
	// per-shard concerns: monitoring, GC control, checkpoints, replication.
	Shard(i int) *core.DB
	Close()
}

// Single adapts one core.DB to Engine.
type Single struct {
	DB *core.DB
}

// NewSingle wraps a single-node database.
func NewSingle(db *core.DB) *Single { return &Single{DB: db} }

// singleTx adds the ignored InsertAt hint to core.Tx.
type singleTx struct {
	*core.Tx
}

func (t singleTx) InsertAt(tid ts.TableID, img []byte, _ int) (ts.RID, error) {
	return t.Tx.Insert(tid, img)
}

func (s *Single) Begin(iso txn.Isolation, declared ...ts.TableID) Tx {
	return singleTx{s.DB.Begin(iso, declared...)}
}

func (s *Single) BeginShard(shard int, iso txn.Isolation, declared ...ts.TableID) (Tx, error) {
	if shard != 0 {
		return nil, fmt.Errorf("engine: shard %d out of range on a single-node engine", shard)
	}
	return s.Begin(iso, declared...), nil
}

func (s *Single) Exec(iso txn.Isolation, declared []ts.TableID, fn func(Tx) error) error {
	return s.DB.Exec(iso, declared, func(tx *core.Tx) error { return fn(singleTx{tx}) })
}

func (s *Single) CreateTable(name string) (ts.TableID, error) { return s.DB.CreateTable(name) }
func (s *Single) TableID(name string) ts.TableID              { return s.DB.TableID(name) }
func (s *Single) TableIDs(names ...string) ([]ts.TableID, error) {
	return s.DB.TableIDs(names...)
}
func (s *Single) Tables() []string                         { return s.DB.Tables() }
func (s *Single) TablePartitions(tid ts.TableID) int       { return s.DB.TablePartitions(tid) }
func (s *Single) SetPlacement(ts.TableID, Placement) error { return nil }

func (s *Single) OpenCursor(tid ts.TableID) (Cursor, error) { return s.DB.OpenCursor(tid) }
func (s *Single) ReadOnly() bool                            { return s.DB.ReadOnly() }
func (s *Single) Stats() core.Stats                         { return s.DB.Stats() }

func (s *Single) Shards() int        { return 1 }
func (s *Single) Shard(int) *core.DB { return s.DB }
func (s *Single) Close()             { s.DB.Close() }
