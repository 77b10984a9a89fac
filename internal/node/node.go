// Package node assembles one serving process: an engine (core.DB or
// shard.Cluster) with its collectors, the replication role it plays, the wire
// server in front of it, and the background workers beside it (HTAP
// migrator, checkpoint ticker). It is the only place those parts are wired
// together — cmd/hybridgcd, the chaos clusters, the read-scale figure and
// the smoke tests all call Start — so start order, shutdown
// order and the replica's re-bootstrap swap are decided once (DESIGN.md,
// "Node assembly and lifecycle").
package node

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/shard"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// drainTimeout bounds how long Shutdown (and a re-bootstrap) waits for
// in-flight requests before force-closing connections.
const drainTimeout = 5 * time.Second

// Config describes a node. The scalar fields are hybridgcd's flags (named in
// each comment); the three embedded structs are the component configs,
// passed through whole. Replica.Upstream selects the replica role.
type Config struct {
	// GC selects the collectors (-gc); the zero value runs none.
	GC gc.Mode
	// Soft/Hard are the version-budget watermarks (-soft, -hard).
	Soft, Hard int64
	// Shards > 1 serves a sharded engine (-shards); primary role only.
	Shards int

	// Data is the persistence directory (-data). A single-shard node with
	// Data also serves replication streams.
	Data string
	// Sync fsyncs the WAL on every commit group (-sync; requires Data).
	Sync bool
	// CheckpointEvery is the periodic checkpoint interval
	// (-checkpoint-every; requires Data).
	CheckpointEvery time.Duration

	// TokenWait is how long a replica read carrying a consistency token
	// waits for the applier before bouncing (-token-wait; replica role).
	TokenWait time.Duration

	// HTAP runs the row→column migrator (-htap; primary role), HTAPEvery is
	// its pass interval (-htap-every; 0 selects the htap default).
	HTAP      bool
	HTAPEvery time.Duration

	// Server carries -addr, -token, -maxconns and -idle. Repl, StatsHook and
	// ReadGate are the node's to wire; Start overwrites them.
	Server server.Config
	// Source tunes the primary's replication side (-repl-stale-after,
	// -repl-write-timeout); it needs a single-shard node with Data.
	Source repl.SourceConfig
	// Replica tunes the replica side (-replica-of, -replica-id,
	// -upstream-token, -repl-stale-after, -repl-write-timeout).
	Replica repl.ReplicaConfig
}

func (c *Config) replica() bool { return c.Replica.Upstream != "" }

// source reports whether the node serves replication streams: WAL shipping
// needs a WAL, and one stream of it — a sharded engine has one per shard.
func (c *Config) source() bool { return !c.replica() && c.Data != "" && c.Shards <= 1 }

// Role names what the config makes of the node, for banners and logs.
func (c *Config) Role() string {
	role := "standalone"
	switch {
	case c.replica():
		role = "replica of " + c.Replica.Upstream
	case c.Shards > 1:
		role = fmt.Sprintf("sharded x%d", c.Shards)
	case c.source():
		role = "primary"
	}
	if c.HTAP {
		role += "+htap"
	}
	return role
}

// Validate rejects every setting the node's role would silently ignore,
// naming the flag that carries it.
func (c *Config) Validate() error {
	for _, r := range []struct {
		bad bool
		msg string
	}{
		{c.replica() && c.Shards > 1, "-shards > 1 is incompatible with -replica-of: replicas are single-node"},
		{c.replica() && c.Data != "", "-data is incompatible with -replica-of: a replica keeps no disk state"},
		{c.replica() && c.HTAP, "-htap is incompatible with -replica-of: the migrator runs on the primary"},
		{c.Sync && c.Data == "", "-sync requires -data"},
		{c.CheckpointEvery > 0 && c.Data == "", "-checkpoint-every requires -data"},
		{c.HTAPEvery != 0 && !c.HTAP, "-htap-every requires -htap"},
		{!c.replica() && c.TokenWait != 0, "-token-wait requires -replica-of: only a replica gates reads"},
		{!c.replica() && c.Replica != (repl.ReplicaConfig{}), "-replica-id and -upstream-token require -replica-of"},
		{!c.source() && c.Source != (repl.SourceConfig{}), "-repl-stale-after and -repl-write-timeout require -replica-of, or -data on a single shard"},
	} {
		if r.bad {
			return errors.New("node: " + r.msg)
		}
	}
	return nil
}

// Node is a running assembly. A primary keeps one engine for its lifetime; a
// replica replaces engine, applier and server together whenever the primary
// demands a re-bootstrap, so they are reached through accessors, never held.
type Node struct {
	cfg  Config
	addr string // bound address; a re-bootstrapped server listens here again

	src      *repl.Source  // primary serving streams
	hm       *htap.Manager // cfg.HTAP
	ckptStop chan struct{} // cfg.CheckpointEvery
	ckptDone chan struct{}

	// mu guards the current incarnation. View holds it shared; a
	// re-bootstrap takes it exclusively to swap, and only then closes the
	// old engine.
	mu       sync.RWMutex
	eng      engine.Engine
	rep      *repl.Replica // replica role
	srv      *server.Server
	served   chan struct{} // closed when srv.Serve returned
	stopping bool

	rebootstraps atomic.Int64
	followDone   chan struct{} // replica role: the follow loop exited

	done     chan struct{} // closed on failure or at the end of Shutdown
	doneOnce sync.Once
	err      error
	shutdown sync.Once
}

// Start validates cfg, brings the node up and returns once it is listening.
// Order: engine (recovery runs here), collectors, replication role, server,
// HTAP migrator, listener, checkpoint ticker, and — on a replica — the
// applier loop.
func Start(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, done: make(chan struct{})}
	var err error
	if n.eng, n.rep, n.srv, err = n.build(); err != nil {
		return nil, err
	}
	if cfg.HTAP {
		if n.hm, err = htap.NewManager(n.eng, htap.Config{Interval: cfg.HTAPEvery}); err != nil {
			n.Shutdown()
			return nil, err
		}
		n.srv.Catalog().AttachHTAP(n.hm)
		n.hm.Start()
	}
	if n.addr, err = n.serve(cfg.Server.Addr); err != nil {
		n.Shutdown()
		return nil, err
	}
	if cfg.CheckpointEvery > 0 {
		n.ckptStop, n.ckptDone = make(chan struct{}), make(chan struct{})
		go n.checkpointer()
	}
	if cfg.replica() {
		n.followDone = make(chan struct{})
		go n.follow()
	}
	return n, nil
}

// build opens one incarnation: an engine with its collectors running, the
// replication role attached, and a server over both (not yet listening).
func (n *Node) build() (engine.Engine, *repl.Replica, *server.Server, error) {
	eng, err := n.openEngine()
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (engine.Engine, *repl.Replica, *server.Server, error) {
		if n.src != nil {
			n.src.Close()
		}
		eng.Close()
		return nil, nil, nil, err
	}
	scfg := n.cfg.Server
	scfg.Repl, scfg.StatsHook, scfg.ReadGate = nil, nil, nil
	var rep *repl.Replica
	switch {
	case n.cfg.replica():
		if rep, err = repl.NewReplica(eng.Shard(0), n.cfg.Replica); err != nil {
			return fail(err)
		}
		scfg.StatsHook = rep.PopulateStats
		scfg.ReadGate = readGate(rep, n.cfg.TokenWait)
	case n.cfg.source():
		if n.src, err = repl.NewSource(eng.Shard(0), n.cfg.Source); err != nil {
			return fail(err)
		}
		scfg.Repl = n.src
		scfg.StatsHook = n.src.PopulateStats
	}
	srv, err := server.NewEngine(eng, scfg)
	if err != nil {
		return fail(err)
	}
	return eng, rep, srv, nil
}

func (n *Node) openEngine() (engine.Engine, error) {
	ecfg := core.Config{
		GC:            n.cfg.GC.Periods(gc.DefaultPeriods()),
		AutoGC:        true,
		VersionBudget: core.VersionBudget{Soft: n.cfg.Soft, Hard: n.cfg.Hard},
		ReadOnly:      n.cfg.replica(),
	}
	if n.cfg.Data != "" {
		ecfg.Persistence = &core.Persistence{Dir: n.cfg.Data, Sync: n.cfg.Sync}
	}
	if n.cfg.Shards > 1 {
		return shard.Open(shard.Config{
			Shards:    n.cfg.Shards,
			Configure: func(int) core.Config { return ecfg },
		})
	}
	db, err := core.Open(ecfg)
	if err != nil {
		return nil, err
	}
	return engine.NewSingle(db), nil
}

// readGate is the replica's consistency-token gate: a read whose token the
// applier already covers passes at once; otherwise it waits up to wait for
// the applier and then bounces with the transient core.ErrReplicaBehind, so
// the client retries on another endpoint.
func readGate(rep *repl.Replica, wait time.Duration) func(uint64) (bool, error) {
	return func(minLSN uint64) (bool, error) {
		target := wal.LSN(minLSN)
		if rep.AppliedLSN() >= target {
			return false, nil
		}
		if err := rep.WaitLSN(target, wait); err != nil {
			return true, fmt.Errorf("%w: %v", core.ErrReplicaBehind, err)
		}
		return true, nil
	}
}

// serve puts the current server on addr and returns the bound address (":0"
// picks a port; a re-bootstrap binds the same one again).
func (n *Node) serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	served := make(chan struct{})
	n.mu.Lock()
	srv := n.srv
	n.served = served
	n.mu.Unlock()
	go func() {
		defer close(served)
		if err := srv.Serve(ln); err != nil {
			n.finish(fmt.Errorf("node: serve: %w", err))
		}
	}()
	return ln.Addr().String(), nil
}

func (n *Node) checkpointer() {
	defer close(n.ckptDone)
	t := time.NewTicker(n.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-n.ckptStop:
			return
		case <-t.C:
			if err := n.checkpoint(); err != nil {
				log.Printf("node: checkpoint: %v", err)
			}
		}
	}
}

func (n *Node) checkpoint() error {
	if cl, ok := n.eng.(*shard.Cluster); ok {
		return cl.Checkpoint() // quiesces two-phase commits across shards
	}
	return n.eng.Shard(0).Checkpoint()
}

// follow runs the applier until Shutdown, replacing the incarnation each
// time the primary answers ErrBootstrapRequired (demotion, pruned segments,
// a checkpoint newer than the replica's state).
func (n *Node) follow() {
	defer close(n.followDone)
	for {
		n.mu.RLock()
		rep, stopping := n.rep, n.stopping
		n.mu.RUnlock()
		if stopping {
			return
		}
		err := rep.Run()
		if err == nil {
			return // stopped
		}
		log.Printf("node: replica %s re-bootstrapping: %v", n.cfg.Replica.ReplicaID, err)
		if err := n.rebootstrap(); err != nil {
			n.finish(fmt.Errorf("node: re-bootstrap: %w", err))
			return
		}
	}
}

// rebootstrap discards the replica's state and starts over empty. The old
// server drains first so its sessions release their cursors; the swap waits
// for every View; only then is the old engine closed, so no accessor ever
// hands out a closed engine.
func (n *Node) rebootstrap() error {
	n.mu.RLock()
	oldSrv, oldServed := n.srv, n.served
	n.mu.RUnlock()
	oldSrv.Shutdown(drainTimeout)
	<-oldServed

	eng, rep, srv, err := n.build()
	if err != nil {
		return err
	}
	n.mu.Lock()
	old := n.eng
	n.eng, n.rep, n.srv = eng, rep, srv
	n.mu.Unlock()
	n.rebootstraps.Add(1)
	old.Close()
	_, err = n.serve(n.addr)
	return err
}

// finish wakes Wait with the first reason the node stopped: a failure of its
// own, or nil from Shutdown.
func (n *Node) finish(err error) {
	n.doneOnce.Do(func() {
		n.err = err
		close(n.done)
	})
}

// Wait blocks until the node stops: nil after Shutdown, or the cause when
// serving or a re-bootstrap failed — Shutdown still releases what is left.
func (n *Node) Wait() error {
	<-n.done
	return n.err
}

// Addr is the address the node listens on, stable across re-bootstraps.
func (n *Node) Addr() string { return n.addr }

// View runs fn with the current engine and applier (nil unless the node is a
// replica) held stable: a re-bootstrap waits for fn to return before it
// swaps and closes them. fn must not call View, Engine, Replica or Stats.
func (n *Node) View(fn func(eng engine.Engine, rep *repl.Replica)) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	fn(n.eng, n.rep)
}

// Engine returns the current engine. On a replica a later re-bootstrap
// closes it; hold it across one through View.
func (n *Node) Engine() engine.Engine {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.eng
}

// Replica returns the current applier, nil unless the node is a replica.
func (n *Node) Replica() *repl.Replica {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.rep
}

// Rebootstraps counts the times a replica node rebuilt itself from a fresh
// checkpoint.
func (n *Node) Rebootstraps() int64 { return n.rebootstraps.Load() }

// Stats is the current server's STATS payload — engine, service and
// replication counters. It stays readable after Shutdown.
func (n *Node) Stats() wire.Stats {
	n.mu.RLock()
	srv := n.srv
	n.mu.RUnlock()
	return srv.Stats()
}

// Shutdown stops the node in dependency order and returns when everything
// it started has exited; calling it again is a no-op. The applier stops
// first (nothing new to apply), then the server drains — requests finish,
// cursors close, replication streams end —
// then the migrator and the checkpoint ticker are stopped and joined, so
// nothing is reading or checkpointing the engine when it closes last.
func (n *Node) Shutdown() {
	n.shutdown.Do(func() {
		n.mu.Lock()
		n.stopping = true
		rep := n.rep
		n.mu.Unlock()
		if n.followDone != nil {
			rep.Stop()
			<-n.followDone
		}
		// The follow loop has exited: the incarnation no longer changes.
		n.srv.Shutdown(drainTimeout)
		if n.served != nil {
			<-n.served
		}
		if n.hm != nil {
			n.hm.Stop()
		}
		if n.ckptStop != nil {
			close(n.ckptStop)
			<-n.ckptDone
		}
		if n.src != nil {
			n.src.Close()
		}
		n.eng.Close()
		n.finish(nil)
	})
}
