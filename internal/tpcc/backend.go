package tpcc

import (
	"strings"

	"hybridgc/internal/client"
	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/sql"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Txn is the transaction surface the driver needs. *core.Tx satisfies it
// directly; client.Tx satisfies it over the wire, so the same driver code
// measures local and remote throughput. The profiles reach it through a
// batch (batch.go).
type Txn interface {
	Get(tid ts.TableID, rid ts.RID) ([]byte, error)
	Insert(tid ts.TableID, img []byte) (ts.RID, error)
	Update(tid ts.TableID, rid ts.RID, img []byte) error
	Delete(tid ts.TableID, rid ts.RID) error
	Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error
	Commit() error
	Abort()
}

// Backend abstracts where the driver's storage lives: the in-process engine
// or a hybridgcd server reached through internal/client.
type Backend interface {
	// CreateTable registers a SQL table with its columns in the catalog,
	// which is what lets SQL and the column lane read it.
	CreateTable(name string, schema colstore.Schema) (ts.TableID, error)
	TableIDs(names ...string) ([]ts.TableID, error)
	// Begin starts a transaction — Trans-SI when snapshot is set, Stmt-SI
	// otherwise.
	Begin(snapshot bool) (Txn, error)
}

// ShardedBackend is the optional surface a backend exposes when it fronts a
// sharded engine: the driver uses it to install by-warehouse placements, pin
// home-only profiles to their warehouse's shard (the single-shard fast path)
// and report the cross-shard share.
type ShardedBackend interface {
	Backend
	// Shards reports the shard count (1 means unsharded).
	Shards() int
	// BeginShard starts a transaction pinned to one shard.
	BeginShard(shard int, snapshot bool) (Txn, error)
	// SetPlacement installs a table's shard placement.
	SetPlacement(tid ts.TableID, p engine.Placement) error
}

// localBackend serves the driver from an in-process engine.
type localBackend struct{ eng engine.Engine }

// LocalBackend wraps a single-node engine as a driver backend.
func LocalBackend(db *core.DB) Backend { return EngineBackend(engine.NewSingle(db)) }

// EngineBackend wraps any engine — single-node or the sharded router — as a
// driver backend. It always satisfies ShardedBackend; the driver only changes
// behavior when Shards() > 1.
func EngineBackend(eng engine.Engine) Backend { return localBackend{eng: eng} }

// CreateTable goes through a catalog built for the call: it reads the few
// schema rows already there and registers one more.
func (b localBackend) CreateTable(name string, schema colstore.Schema) (ts.TableID, error) {
	cat, err := sql.NewCatalogEngine(b.eng)
	if err != nil {
		return 0, err
	}
	t, err := cat.CreateTable(name, schema)
	if err != nil {
		return 0, err
	}
	return t.ID, nil
}
func (b localBackend) TableIDs(names ...string) ([]ts.TableID, error) {
	return b.eng.TableIDs(names...)
}
func (b localBackend) Begin(snapshot bool) (Txn, error) {
	return b.eng.Begin(isolation(snapshot)), nil
}
func (b localBackend) Shards() int { return b.eng.Shards() }
func (b localBackend) BeginShard(shard int, snapshot bool) (Txn, error) {
	return b.eng.BeginShard(shard, isolation(snapshot))
}
func (b localBackend) SetPlacement(tid ts.TableID, p engine.Placement) error {
	return b.eng.SetPlacement(tid, p)
}

func isolation(snapshot bool) txn.Isolation {
	if snapshot {
		return txn.TransSI
	}
	return txn.StmtSI
}

// remoteBackend serves the driver over the wire protocol.
type remoteBackend struct{ c *client.Client }

// RemoteBackend wraps a wire client as a driver backend: the existing TPC-C
// profiles run against a hybridgcd server, with transient wire errors
// (conflicts, version pressure) retried by the same core.Retry policy the
// local path uses.
func RemoteBackend(c *client.Client) Backend { return remoteBackend{c: c} }

// CreateTable sends the table's CREATE TABLE statement: a column's type
// prints as its SQL name.
func (b remoteBackend) CreateTable(name string, schema colstore.Schema) (ts.TableID, error) {
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name + " " + c.Type.String()
	}
	if _, err := b.c.Exec("CREATE TABLE " + name + " (" + strings.Join(cols, ", ") + ")"); err != nil {
		return 0, err
	}
	ids, err := b.c.TableIDs(name)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}
func (b remoteBackend) TableIDs(names ...string) ([]ts.TableID, error) {
	return b.c.TableIDs(names...)
}
func (b remoteBackend) Begin(snapshot bool) (Txn, error) { return b.c.Begin(snapshot) }
func (b remoteBackend) Shards() int                      { return b.c.ShardCount() }
func (b remoteBackend) BeginShard(shard int, snapshot bool) (Txn, error) {
	return b.c.BeginShard(shard, snapshot)
}
func (b remoteBackend) SetPlacement(tid ts.TableID, p engine.Placement) error {
	return b.c.SetPlacement(tid, p)
}

// insertAt routes an insert through the transaction's shard hint when the
// backend supports one (engine.Tx and client.Tx do), falling back to a plain
// Insert. The hint is advisory placement affinity, never correctness.
func insertAt(tx Txn, tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	if h, ok := tx.(interface {
		InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error)
	}); ok {
		return h.InsertAt(tid, img, hint)
	}
	return tx.Insert(tid, img)
}

// SetCheckBackend routes the consistency check (Check) through a different
// backend than the workload — typically a read-only replica endpoint, so the
// check leg validates replicated state while writes keep going to the
// primary. Table IDs are identical on both ends: replication ships DDL with
// primary-assigned IDs. Nil restores the workload backend.
func (d *Driver) SetCheckBackend(be Backend) { d.checkBE = be }

// checkBackend is the backend Check reads from.
func (d *Driver) checkBackend() Backend {
	if d.checkBE != nil {
		return d.checkBE
	}
	return d.be
}

// snapshot is the isolation the profiles run under. Without the remote
// clauses every row belongs to one worker and Stmt-SI (the paper's default)
// is enough. With them a remote Payment and the home worker's Delivery
// read-modify-write the same CUSTOMER row, and under Stmt-SI one update is
// lost (consistency condition C5 breaks in a few runs in a hundred); under
// Trans-SI the second writer gets ErrWriteConflict and the retry re-runs it.
func (d *Driver) snapshot() bool { return d.cfg.CrossWarehouse }

// runTxn runs fn over the transaction begin opens and aborts it if fn fails
// or panics. fn queues the COMMIT itself, with its last operations. The batch
// surface follows from what the transaction is: one that can send its
// operations together (client.Tx) brings its own, any other gets eager.
func runTxn(begin func() (Txn, error), eager *eagerBatch, fn func(b batch) error) error {
	tx, err := begin()
	if err != nil {
		return err
	}
	var b batch
	if bt, ok := tx.(interface{ Batch() *client.Batch }); ok {
		b = bt.Batch()
	} else {
		eager.reset(tx)
		b = eager
	}
	done := false
	defer func() {
		if !done {
			tx.Abort()
		}
	}()
	err = fn(b)
	done = err == nil
	return err
}

// exec runs fn in one routed transaction on the backend.
func (d *Driver) exec(eager *eagerBatch, fn func(b batch) error) error {
	return runTxn(func() (Txn, error) { return d.be.Begin(d.snapshot()) }, eager, fn)
}

// execOn runs fn in one transaction pinned to warehouse w's home shard — the
// single-shard fast path — when the backend is sharded and the profile is
// known to stay home. Cross-warehouse profiles (and unsharded backends) go
// through the routed exec path instead.
func (d *Driver) execOn(w uint32, cross bool, eager *eagerBatch, fn func(b batch) error) error {
	sb, ok := d.be.(ShardedBackend)
	if !ok || d.shards <= 1 || cross {
		return d.exec(eager, fn)
	}
	return runTxn(func() (Txn, error) { return sb.BeginShard(d.shardOfW(w), d.snapshot()) }, eager, fn)
}

// exec is execOn for the worker's home warehouse with the transient-failure
// retry policy: backoff on write conflicts and version pressure, local or
// wire-carried.
func (wk *Worker) exec(cross bool, fn func(b batch) error) error {
	return core.Retry(txnRetries, retryBase, func() error {
		return wk.d.execOn(wk.w, cross, &wk.eager, fn)
	})
}
