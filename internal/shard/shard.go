// Package shard is the horizontally sharded engine: N independent core.DB
// instances — each with its own WAL directory, version space, snapshot
// registry and garbage-collection scheduler — behind one engine.Engine. The
// paper's garbage-collection structures are all per-node, so sharding is the
// natural scale-out: each shard's GC horizon advances against only its own
// snapshots, and a long-lived cursor pinned to one shard never blocks
// reclamation on another.
//
// Records are partitioned by RID under per-table placements (see
// engine.Placement): interleaved blocks by default, a fixed shard, or
// replicated to every shard for small read-mostly tables. Callers see one
// global RID space; the router translates through the placement bijection.
//
// Single-shard transactions — the overwhelming majority under a well-placed
// workload — commit through the shard's existing group-commit fast path,
// untouched. Cross-shard transactions use a minimal two-phase commit: each
// participant's write set becomes a KindPrepare record in its own WAL, the
// coordinator (shard 0) logs a KindDecision, participants publish through
// group commit with logging skipped (the write set is already durable) and
// settle with a KindResolve carrying the publish CID. Recovery is
// presumed-abort: an in-doubt prepare commits only if the coordinator's log
// holds a commit decision for its XID.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Errors returned by the sharded engine.
var (
	ErrShardRange = errors.New("shard: shard index out of range")
	// ErrCrossShard reports an operation that would leave a pinned
	// single-shard transaction's shard.
	ErrCrossShard = errors.New("shard: operation crosses the pinned shard")
	// ErrPlacementLate reports SetPlacement on a table that already has rows.
	ErrPlacementLate = errors.New("shard: placement must be set before the table receives rows")
)

// Config tunes a Cluster.
type Config struct {
	// Shards is the shard count (<=0 selects 1).
	Shards int
	// Configure returns shard i's engine config. The returned config's
	// Persistence, if any, is re-rooted to a shard-<i> subdirectory of its
	// Dir, so one base directory serves the whole cluster. Nil selects
	// in-memory defaults.
	Configure func(i int) core.Config
}

// tablePlace is one table's placement plus the interleave insert counter that
// spreads unhinted inserts round-robin in placement-sized blocks.
type tablePlace struct {
	p   engine.Placement
	ctr atomic.Uint64
}

// Cluster is N engine shards behind one engine.Engine.
type Cluster struct {
	shards []*core.DB

	// xid numbers distributed transactions, seeded past every XID recovery
	// saw so restarted coordinators never reuse one.
	xid atomic.Uint64

	// gate orders two-phase commits against cluster checkpoints: a commit
	// holds it shared for the whole prepare→resolve window, Checkpoint holds
	// it exclusively, so no shard checkpoints with a prepare durable but its
	// resolve still pending.
	gate sync.RWMutex

	// ddlMu serializes CreateTable so every shard assigns the same TableID.
	ddlMu sync.Mutex

	mu    sync.RWMutex
	place map[ts.TableID]*tablePlace
}

// Open starts every shard and settles in-doubt cross-shard transactions left
// by a crash: each shard's recovered prepares are matched against the
// coordinator's decision log — commit installs the prepared write set,
// anything else aborts (presumed abort) — and settled either way with a
// resolve record so the next recovery is clean.
func Open(cfg Config) (*Cluster, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	c := &Cluster{place: make(map[ts.TableID]*tablePlace)}
	for i := 0; i < n; i++ {
		var sc core.Config
		if cfg.Configure != nil {
			sc = cfg.Configure(i)
		}
		if p := sc.Persistence; p != nil {
			sub := *p
			sub.Dir = ShardDir(p.Dir, i)
			sc.Persistence = &sub
		}
		db, err := core.Open(sc)
		if err != nil {
			for _, s := range c.shards {
				s.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.shards = append(c.shards, db)
	}
	if err := c.settleInDoubt(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// ShardDir is shard i's persistence directory under the cluster base.
func ShardDir(base string, i int) string {
	return filepath.Join(base, fmt.Sprintf("shard-%d", i))
}

// settleInDoubt resolves recovered in-doubt prepares against the
// coordinator's decisions and seeds the XID counter.
func (c *Cluster) settleInDoubt() error {
	var decisions map[uint64]bool
	if sum := c.shards[0].Recovery(); sum != nil {
		decisions = sum.Decisions
		for xid := range sum.Decisions {
			c.bumpXID(xid)
		}
	}
	for i, db := range c.shards {
		sum := db.Recovery()
		if sum == nil {
			continue
		}
		for xid, ops := range sum.InDoubt {
			c.bumpXID(xid)
			if decisions[xid] {
				cid, err := db.CommitRecovered(ops)
				if err != nil {
					return fmt.Errorf("shard %d: committing in-doubt xid %d: %w", i, xid, err)
				}
				if err := db.AppendResolve(xid, true, cid); err != nil {
					return fmt.Errorf("shard %d: settling xid %d: %w", i, xid, err)
				}
			} else if err := db.AppendResolve(xid, false, 0); err != nil {
				return fmt.Errorf("shard %d: aborting xid %d: %w", i, xid, err)
			}
		}
	}
	return nil
}

func (c *Cluster) bumpXID(seen uint64) {
	for {
		cur := c.xid.Load()
		if seen <= cur || c.xid.CompareAndSwap(cur, seen) {
			return
		}
	}
}

// placement returns the table's placement record, installing the default
// (interleave, block size 1) on first touch.
func (c *Cluster) placement(tid ts.TableID) *tablePlace {
	c.mu.RLock()
	tp := c.place[tid]
	c.mu.RUnlock()
	if tp != nil {
		return tp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tp = c.place[tid]; tp == nil {
		tp = &tablePlace{p: engine.Placement{Kind: engine.PlaceInterleave, Size: 1}}
		c.place[tid] = tp
	}
	return tp
}

// SetPlacement installs a table's placement. The local↔global RID bijection
// depends on it, so a placement must be installed before the table receives
// rows and reinstalled identically before first access after a reopen
// (placements are in-memory; recovery does not restore them). Changing an
// already-installed placement once the table has rows is rejected — the
// existing rows were placed under the old bijection.
func (c *Cluster) SetPlacement(tid ts.TableID, p engine.Placement) error {
	if p.Kind == engine.PlaceFixed && (p.Shard < 0 || p.Shard >= len(c.shards)) {
		return fmt.Errorf("%w: fixed shard %d of %d", ErrShardRange, p.Shard, len(c.shards))
	}
	if p.Size == 0 {
		p.Size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.place[tid]; old != nil && old.p != p {
		for _, db := range c.shards {
			if db.ScanCountAt(tid, db.Manager().CurrentTS()) > 0 {
				return fmt.Errorf("%w: table %d", ErrPlacementLate, tid)
			}
		}
	}
	c.place[tid] = &tablePlace{p: p}
	return nil
}

// --- engine.Engine ---

// Begin starts a routed transaction that may touch any shard; per-shard
// participants open lazily and a multi-writer commit runs two-phase commit.
func (c *Cluster) Begin(iso txn.Isolation, declared ...ts.TableID) engine.Tx {
	return &clusterTx{c: c, iso: iso, declared: declared, pinned: -1, anchor: -1}
}

// BeginShard starts a transaction pinned to one shard — the single-shard fast
// path. RIDs stay global; operations routed to any other shard fail with
// ErrCrossShard.
func (c *Cluster) BeginShard(shard int, iso txn.Isolation, declared ...ts.TableID) (engine.Tx, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("%w: %d of %d", ErrShardRange, shard, len(c.shards))
	}
	return &clusterTx{c: c, iso: iso, declared: declared, pinned: shard, anchor: shard}, nil
}

// Exec runs fn inside a routed transaction, committing on success and
// aborting on error.
func (c *Cluster) Exec(iso txn.Isolation, declared []ts.TableID, fn func(engine.Tx) error) error {
	tx := c.Begin(iso, declared...)
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// CreateTable creates the table on every shard under one DDL lock, so all
// shards assign the same TableID.
func (c *Cluster) CreateTable(name string) (ts.TableID, error) {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	var id ts.TableID
	for i, db := range c.shards {
		tid, err := db.CreateTable(name)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			id = tid
		} else if tid != id {
			return 0, fmt.Errorf("shard %d assigned table %q id %d, shard 0 assigned %d", i, name, tid, id)
		}
	}
	return id, nil
}

func (c *Cluster) TableID(name string) ts.TableID { return c.shards[0].TableID(name) }

func (c *Cluster) TableIDs(names ...string) ([]ts.TableID, error) {
	return c.shards[0].TableIDs(names...)
}

func (c *Cluster) Tables() []string { return c.shards[0].Tables() }

func (c *Cluster) TablePartitions(tid ts.TableID) int { return c.shards[0].TablePartitions(tid) }

func (c *Cluster) ReadOnly() bool { return c.shards[0].ReadOnly() }

func (c *Cluster) Shards() int { return len(c.shards) }

func (c *Cluster) Shard(i int) *core.DB { return c.shards[i] }

// Stats is core.MergeStats over one reading of every shard.
func (c *Cluster) Stats() core.Stats {
	per := make([]core.Stats, len(c.shards))
	for i, db := range c.shards {
		per[i] = db.Stats()
	}
	return core.MergeStats(per)
}

// Checkpoint checkpoints every shard under the two-phase-commit gate, so a
// prepare and its resolve never straddle a shard's checkpoint.
func (c *Cluster) Checkpoint() error {
	c.gate.Lock()
	defer c.gate.Unlock()
	for i, db := range c.shards {
		if err := db.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard.
func (c *Cluster) Close() {
	for _, db := range c.shards {
		db.Close()
	}
}

var _ engine.Engine = (*Cluster)(nil)
