package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/server"
	"hybridgc/internal/shard"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
)

// deployment is one set-up of a workload's shape: the engine, whatever
// stands between it and the TPC-C driver, and the loaded driver.
type deployment struct {
	cfg tpcc.Config
	eng engine.Engine // the engine itself, never the traced wrapper
	drv *tpcc.Driver
	// be is the in-process workloads' backend, which htap_pin's analyst
	// scans through beside the workers.
	be tpcc.Backend

	srv    *server.Server
	served chan error
	cli    *client.Client
	walDir string
}

// deploy opens the engine, loads TPC-C and binds the driver, ready for the
// first worker. With a tracer the engine (and over the wire the client) is
// wrapped and the engine's own GC scheduler stays off: the traced run paces
// the collectors itself to time them.
func deploy(spec workloadSpec, seed int64, tr *tracer, workDir string) (*deployment, error) {
	d := &deployment{cfg: tpccConfig(seed, spec.sharded)}
	coreCfg := core.Config{GC: gcPeriods, LongLivedThreshold: longLivedThreshold, AutoGC: tr == nil}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	switch {
	case spec.sharded:
		cl, err := shard.Open(shard.Config{Shards: workers, Configure: func(int) core.Config { return coreCfg }})
		if err != nil {
			return nil, err
		}
		d.eng = cl
	case spec.wire:
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		d.walDir = dir
		// Load, checkpoint and reopen: the engine the workers meet has
		// recovered from that checkpoint, as a restarted server would.
		if err := bulkLoad(dir, d.cfg); err != nil {
			return nil, err
		}
		coreCfg.Persistence = &core.Persistence{Dir: dir, Sync: walSync}
		db, err := core.Open(coreCfg)
		if err != nil {
			return nil, err
		}
		d.eng = engine.NewSingle(db)
	default:
		db, err := core.Open(coreCfg)
		if err != nil {
			return nil, err
		}
		d.eng = engine.NewSingle(db)
	}

	served := d.eng
	if tr != nil {
		served = tracedEngine{Engine: d.eng, tr: tr}
	}
	var err error
	if spec.wire {
		err = d.serve(served, tr)
	} else {
		d.be = tpcc.EngineBackend(served)
		if spec.sharded {
			d.be = snapshotBackend{d.be.(tpcc.ShardedBackend)}
		}
		if d.drv, err = tpcc.NewWithBackend(d.be, d.cfg); err == nil {
			err = d.drv.Load()
		}
	}
	if err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// snapshotBackend starts every transaction under Trans-SI. The TPC-C driver
// asks for Stmt-SI, under which its read-modify-write profiles lose updates
// once two workers can touch one row: with CrossWarehouse a remote Payment
// and the home worker's Delivery race on a CUSTOMER row, and consistency
// condition C5 breaks in roughly one 8 s run in six — on engine.Single as
// well, so it is the isolation level, not two-phase commit. Under Trans-SI
// the second writer gets ErrWriteConflict and the driver's retry re-runs it.
// Only shard_cross needs this: on the other workloads no row is shared.
type snapshotBackend struct{ tpcc.ShardedBackend }

func (b snapshotBackend) Begin(bool) (tpcc.Txn, error) { return b.ShardedBackend.Begin(true) }

func (b snapshotBackend) BeginShard(shard int, _ bool) (tpcc.Txn, error) {
	return b.ShardedBackend.BeginShard(shard, true)
}

func bulkLoad(dir string, cfg tpcc.Config) error {
	db, err := core.Open(core.Config{Persistence: &core.Persistence{Dir: dir, Sync: walSync}})
	if err != nil {
		return err
	}
	defer db.Close()
	drv, err := tpcc.New(db, cfg)
	if err != nil {
		return err
	}
	if err := drv.Load(); err != nil {
		return err
	}
	return db.Checkpoint()
}

// serve puts the engine behind a TCP listener on loopback and binds the
// driver through the pooled client.
func (d *deployment) serve(eng engine.Engine, tr *tracer) error {
	srv, err := server.NewEngine(eng, server.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv = srv
	d.served = make(chan error, 1)
	go func() { d.served <- srv.Serve(ln) }()

	addr := ln.Addr().String()
	if d.cli, err = client.Dial(client.Config{Addr: addr, MaxConns: poolConns}); err != nil {
		return err
	}
	be := tpcc.RemoteBackend(d.cli)
	if tr != nil {
		be = tracedBackend{ShardedBackend: be.(tpcc.ShardedBackend), tr: tr}
	}
	d.drv, err = tpcc.AttachBackend(be, d.cfg)
	return err
}

// stopServing closes the client and drains the server.
func (d *deployment) stopServing() error {
	if d.cli != nil {
		d.cli.Close()
		d.cli = nil
	}
	if d.srv == nil {
		return nil
	}
	d.srv.Shutdown(5 * time.Second)
	d.srv = nil
	return <-d.served
}

// close tears the deployment down and removes its WAL directory.
func (d *deployment) close() {
	_ = d.stopServing() // teardown: the run has already been judged
	if d.eng != nil {
		d.eng.Close()
		d.eng = nil
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// countRows counts the rows of one table visible to a fresh snapshot.
func countRows(be tpcc.Backend, tid ts.TableID) (int64, error) {
	tx, err := be.Begin(true)
	if err != nil {
		return 0, err
	}
	defer tx.Abort()
	var n int64
	err = tx.Scan(tid, func(ts.RID, []byte) bool { n++; return true })
	return n, err
}

// checkRecovery shuts the deployment down, reopens the engine from the WAL
// directory alone and requires that every commit a client saw acknowledged
// survived: the recovered commit timestamp has not moved back, ORDERS and
// HISTORY hold at least one row per acknowledged New-Order and Payment, the
// live driver's indexes (every order it was told committed) check out against
// the recovered data, and a driver attached from scratch is consistent too.
// It returns the reopen time.
func (d *deployment) checkRecovery(ackedNewOrder, ackedPayment int64) (time.Duration, error) {
	before := d.eng.Stats().CurrentCID
	if err := d.stopServing(); err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	d.eng.Close()
	d.eng = nil

	t0 := time.Now()
	db, err := core.Open(core.Config{Persistence: &core.Persistence{Dir: d.walDir, Sync: walSync}})
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	took := time.Since(t0)
	defer db.Close()

	if after := db.Stats().CurrentCID; after < before {
		return 0, fmt.Errorf("recovered commit timestamp %d < %d before shutdown", after, before)
	}
	be := tpcc.LocalBackend(db)
	ids := d.drv.TableIDsByName()
	customers := int64(d.cfg.Warehouses * d.cfg.Districts * d.cfg.CustomersPerDistrict)
	for _, c := range []struct {
		table string
		want  int64
	}{
		{tpcc.TableOrders, ackedNewOrder},
		{tpcc.TableHistory, customers + ackedPayment},
	} {
		got, err := countRows(be, ids[c.table])
		if err != nil {
			return 0, fmt.Errorf("count %s: %w", c.table, err)
		}
		if got < c.want {
			return 0, fmt.Errorf("recovered %s has %d rows, clients saw %d acknowledged", c.table, got, c.want)
		}
	}
	d.drv.SetCheckBackend(be)
	if err := d.drv.Check(); err != nil {
		return 0, fmt.Errorf("live driver against recovered data: %w", err)
	}
	fresh, err := tpcc.Attach(db, d.cfg)
	if err != nil {
		return 0, fmt.Errorf("attach: %w", err)
	}
	if err := fresh.Check(); err != nil {
		return 0, fmt.Errorf("attached driver: %w", err)
	}
	return took, nil
}
