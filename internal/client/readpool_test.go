package client_test

// The read scale-out consistency battery: read-your-writes through the
// pool, token monotonicity across endpoint failover, and session reads
// routed away from a stalled replica. The cluster is real — a persistent
// primary serving replication streams plus replicas applying them, each
// behind its own loopback server with the consistency-token read gate — the
// nodes hybridgcd runs, started through internal/node.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/fault"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
)

// poolCluster is one persistent primary plus n token-gated replicas, each a
// node on loopback.
type poolCluster struct {
	primary  *node.Node
	replicas []*node.Node
}

func startPoolCluster(t *testing.T, nReplicas int, tokenWait time.Duration) *poolCluster {
	t.Helper()
	start := func(cfg node.Config) *node.Node {
		cfg.Server.Addr = "127.0.0.1:0"
		n, err := node.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Shutdown)
		return n
	}
	c := &poolCluster{primary: start(node.Config{
		Data:   t.TempDir(),
		Source: repl.SourceConfig{HeartbeatEvery: 10 * time.Millisecond, StaleAfter: 30 * time.Second},
	})}
	for i := 0; i < nReplicas; i++ {
		c.replicas = append(c.replicas, start(node.Config{
			TokenWait: tokenWait,
			Replica: repl.ReplicaConfig{
				Upstream:      c.primary.Addr(),
				ReplicaID:     fmt.Sprintf("r%d", i+1),
				ReportEvery:   10 * time.Millisecond,
				ReconnectBase: 10 * time.Millisecond,
				StallTimeout:  30 * time.Second,
			},
		}))
	}
	return c
}

func (c *poolCluster) replicaAddrs() []string {
	out := make([]string, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.Addr()
	}
	return out
}

func (c *poolCluster) newPool(t *testing.T) *client.ReadPool {
	t.Helper()
	pool, err := client.NewReadPool(client.PoolConfig{
		Primary:        c.primary.Addr(),
		Replicas:       c.replicaAddrs(),
		QuarantineBase: 20 * time.Millisecond,
		QuarantineMax:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestReadPoolReadYourWrites is the headline regression: commit on the
// primary, read through the pool immediately, 1000 times — the write must be
// visible every single time, no matter which endpoint serves the read,
// because the session token gates replicas behind the commit.
func TestReadPoolReadYourWrites(t *testing.T) {
	c := startPoolCluster(t, 2, 2*time.Second)
	pool := c.newPool(t)
	if _, err := pool.Exec("CREATE TABLE kv (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if _, err := pool.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*3)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		res, err := pool.Read(fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i), client.Session)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != int64(i*3) {
			t.Fatalf("read-your-writes violated at %d: %+v (counters %+v)", i, res.Rows, pool.Counters())
		}
	}
	ctr := pool.Counters()
	t.Logf("counters: %+v token=%d", ctr, pool.Token())
	if ctr.ReplicaReads == 0 {
		t.Fatal("no read was served by a replica; the pool never scaled out")
	}
	if pool.Token() == 0 {
		t.Fatal("session token never advanced")
	}
}

// TestReadPoolTokenMonotonicAcrossFailover proves the session token never
// regresses — per statement, and across a replica dying mid-run with its
// traffic failing over to the surviving endpoints.
func TestReadPoolTokenMonotonicAcrossFailover(t *testing.T) {
	c := startPoolCluster(t, 2, 2*time.Second)
	pool := c.newPool(t)
	if _, err := pool.Exec("CREATE TABLE kv (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	var last uint64
	step := func(i int) {
		res, err := pool.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.Token < last {
			t.Fatalf("statement token regressed at %d: %d after %d", i, res.Token, last)
		}
		if tok := pool.Token(); tok < last || tok < res.Token {
			t.Fatalf("session token regressed at %d: %d (last %d, stmt %d)", i, tok, last, res.Token)
		}
		last = pool.Token()
		if _, err := pool.Read(fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i), client.Session); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if tok := pool.Token(); tok < last {
			t.Fatalf("read regressed the session token at %d: %d after %d", i, tok, last)
		}
	}
	for i := 1; i <= 60; i++ {
		step(i)
	}
	// Kill one replica mid-run: reads must keep succeeding (failover) and
	// the token discipline must hold on the survivors.
	c.replicas[0].Shutdown()
	for i := 61; i <= 120; i++ {
		step(i)
	}
	// A stale external token cannot regress the session either.
	before := pool.Token()
	pool.ObserveToken(1)
	if pool.Token() != before {
		t.Fatalf("ObserveToken(1) regressed the token: %d -> %d", before, pool.Token())
	}
	t.Logf("counters after failover: %+v", pool.Counters())
}

// TestReadPoolSessionReadSkipsStalledReplica stalls the sole replica's
// applier with the fault failpoint and proves a Session read routes away
// from it: the replica's gate bounces the read and the primary serves the
// fresh row; once the stall clears, the replica serves again. One replica
// only — the failpoint registry is process-global.
func TestReadPoolSessionReadSkipsStalledReplica(t *testing.T) {
	c := startPoolCluster(t, 1, 40*time.Millisecond)
	pool := c.newPool(t)
	if _, err := pool.Exec("CREATE TABLE kv (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	// Let the replica catch up and serve at least one session read, so the
	// later counters are meaningful.
	deadline := time.Now().Add(10 * time.Second)
	for pool.Counters().ReplicaReads == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never served a read: %+v", pool.Counters())
		}
		if _, err := pool.Read("SELECT v FROM kv WHERE id = 1", client.Session); err != nil {
			t.Fatal(err)
		}
	}

	// Stall the applier: every apply attempt fails, the stream reconnects,
	// and the replica's applied LSN freezes while its view of the primary's
	// head stays fresh — the signature of a wedged replica.
	fault.Enable(repl.FPApplyStall, fault.ReturnErr(errors.New("wedged applier")))
	t.Cleanup(func() { fault.Disable(repl.FPApplyStall) })

	if _, err := pool.Exec("INSERT INTO kv VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	// Wait until the replica itself reports applied < head.
	rcl, err := client.Dial(client.Config{Addr: c.replicas[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	for {
		st, err := rcl.Stats()
		if err == nil && st.ReplAppliedLSN < st.ReplPrimaryLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica stats never showed the stall")
		}
		time.Sleep(5 * time.Millisecond)
	}

	before := pool.Counters()
	// The gate bounces the read and the primary serves the fresh row.
	res, err := pool.Read("SELECT v FROM kv WHERE id = 2", client.Session)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 20 {
		t.Fatalf("session read returned stale or missing data: %+v", res.Rows)
	}
	final := pool.Counters()
	if final.ReplicaReads != before.ReplicaReads {
		t.Fatalf("stalled replica served a session read: %+v", final)
	}
	if final.Bounces == before.Bounces {
		t.Fatalf("session read against a stalled replica never bounced: %+v -> %+v", before, final)
	}
	if final.PrimaryReads != before.PrimaryReads+1 {
		t.Fatalf("session read not served by the primary: %+v -> %+v", before, final)
	}

	// Recovery: clear the stall and the replica serves session reads again.
	fault.Disable(repl.FPApplyStall)
	deadline = time.Now().Add(10 * time.Second)
	for pool.Counters().ReplicaReads == final.ReplicaReads {
		if time.Now().After(deadline) {
			t.Fatalf("replica never recovered: %+v", pool.Counters())
		}
		if _, err := pool.Read("SELECT v FROM kv WHERE id = 2", client.Session); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
