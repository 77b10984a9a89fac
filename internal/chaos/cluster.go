package chaos

import (
	"fmt"
	"os"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/netfault"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/ts"
)

// Timing profile for chaos runs: tight enough that partitions, demotions and
// redials all happen inside a few seconds of wall clock, loose enough that a
// healthy loopback exchange never trips a deadline.
const (
	heartbeatEvery  = 20 * time.Millisecond
	reportEvery     = 20 * time.Millisecond
	staleAfter      = 500 * time.Millisecond
	streamWriteTO   = 300 * time.Millisecond
	replicaStallTO  = 600 * time.Millisecond
	clientDialTO    = 400 * time.Millisecond
	clientRequestTO = 800 * time.Millisecond
)

// cluster is the system under test: one persistent primary node, N replica
// nodes each streaming through their own fault proxy, and a pooled client
// dialing the primary through the client proxy.
type cluster struct {
	dir string

	primary *node.Node
	db      *core.DB // the primary's engine; a primary never swaps it

	clientInj   *netfault.Injector
	clientProxy *netfault.Proxy
	cl          *client.Client

	replicas []*replicaNode

	accounts ts.TableID
	ledger   ts.TableID
	acctRIDs []ts.RID
	total    int64
}

// replicaNode is one replica node and the proxy its stream goes through.
// The node re-bootstraps itself after a demotion, so readers reach its
// engine through View for as long as they hold a cursor into it.
type replicaNode struct {
	*node.Node
	id    string
	proxy *netfault.Proxy
}

// startPrimary starts a persistent primary node on loopback; both chaos
// topologies use it, with their own staleness bound.
func startPrimary(dir string, staleAfter time.Duration) (*node.Node, error) {
	return node.Start(node.Config{
		GC:     gc.ModeHG,
		Data:   dir,
		Server: server.Config{Addr: "127.0.0.1:0", WriteTimeout: clientRequestTO},
		Source: repl.SourceConfig{
			HeartbeatEvery: heartbeatEvery,
			StaleAfter:     staleAfter,
			WriteTimeout:   streamWriteTO,
		},
	})
}

// startCluster builds the whole topology and seeds the bank.
func startCluster(opt Options) (*cluster, error) {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	fail := func(err error) (*cluster, error) {
		c.stop()
		return nil, err
	}

	if c.primary, err = startPrimary(dir, staleAfter); err != nil {
		return fail(err)
	}
	c.db = c.primary.Engine().Shard(0)
	addr := c.primary.Addr()

	// Seed the bank directly on the engine, before any network weather.
	if err := c.seedBank(opt.Accounts); err != nil {
		return fail(err)
	}

	// Client path: pooled client → injector-armed proxy → primary. The
	// injector's per-I/O kills, stalls and partial writes ride on top of
	// whatever the nemesis does to the proxy's gates.
	c.clientInj = netfault.NewInjector(opt.Seed, netfault.Plan{
		KillProb:         0.004,
		StallProb:        0.004,
		Stall:            100 * time.Millisecond,
		PartialWriteProb: 0.002,
	})
	c.clientProxy, err = netfault.NewProxy(addr, c.clientInj)
	if err != nil {
		return fail(err)
	}
	c.cl, err = client.Dial(client.Config{
		Addr:           c.clientProxy.Addr(),
		MaxConns:       8,
		DialTimeout:    clientDialTO,
		RequestTimeout: clientRequestTO,
		RedialBase:     10 * time.Millisecond,
		RedialMax:      150 * time.Millisecond,
	})
	if err != nil {
		return fail(err)
	}

	// Replica paths: each replica dials the primary through its own proxy so
	// the nemesis can partition them independently.
	for i := 0; i < opt.Replicas; i++ {
		n, err := startReplicaNode(fmt.Sprintf("r%d", i), addr)
		if err != nil {
			return fail(err)
		}
		c.replicas = append(c.replicas, n)
	}
	return c, nil
}

// seedBank creates the accounts and ledger tables and funds every account.
func (c *cluster) seedBank(accounts int) error {
	var err error
	if c.accounts, err = c.db.CreateTable("accounts"); err != nil {
		return err
	}
	if c.ledger, err = c.db.CreateTable("ledger"); err != nil {
		return err
	}
	const initial = 1000
	for i := 0; i < accounts; i++ {
		rid, err := insertLocal(c.db, c.accounts, formatBalance(initial))
		if err != nil {
			return err
		}
		c.acctRIDs = append(c.acctRIDs, rid)
		c.total += initial
	}
	return nil
}

// healAll clears every proxy fault so the cluster can converge.
func (c *cluster) healAll() {
	c.clientProxy.Heal()
	for _, n := range c.replicas {
		n.proxy.Heal()
	}
}

// stop tears the whole topology down; safe on a partially built cluster.
func (c *cluster) stop() {
	if c.cl != nil {
		c.cl.Close()
	}
	if c.clientProxy != nil {
		c.clientProxy.Close()
	}
	for _, n := range c.replicas {
		n.Shutdown()
		n.proxy.Close()
	}
	if c.primary != nil {
		c.primary.Shutdown()
	}
	os.RemoveAll(c.dir)
}

func startReplicaNode(id, primaryAddr string) (*replicaNode, error) {
	proxy, err := netfault.NewProxy(primaryAddr, nil)
	if err != nil {
		return nil, err
	}
	n, err := node.Start(node.Config{
		GC:     gc.ModeHG,
		Server: server.Config{Addr: "127.0.0.1:0"},
		Replica: repl.ReplicaConfig{
			Upstream:      proxy.Addr(),
			ReplicaID:     id,
			ReportEvery:   reportEvery,
			DialTimeout:   300 * time.Millisecond,
			StallTimeout:  replicaStallTO,
			WriteTimeout:  streamWriteTO,
			ReconnectBase: 10 * time.Millisecond,
			ReconnectMax:  200 * time.Millisecond,
		},
	})
	if err != nil {
		proxy.Close()
		return nil, err
	}
	return &replicaNode{Node: n, id: id, proxy: proxy}, nil
}
