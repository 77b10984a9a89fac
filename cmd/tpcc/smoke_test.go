package main

// The end-to-end smokes: each starts real nodes (internal/node — what
// hybridgcd runs) on loopback ports, drives them with run exactly as the
// command line would, and asserts on the returned report.

import (
	"io"
	"strings"
	"testing"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/tpcc"
)

func startNode(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	cfg.GC = gc.ModeHG
	cfg.Server = server.Config{Addr: "127.0.0.1:0"}
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	return n
}

// smokeOptions is a small TPC-C against addr: the flag defaults, scaled down
// so load, run and check fit a unit-test budget.
func smokeOptions(addr string, warehouses int) options {
	o := options{
		warehouses: warehouses, items: 100, customers: 10, districts: 10,
		duration: time.Second, mode: gc.ModeHG, check: true, seed: 1,
		shards: 1, readers: 2, addr: addr,
	}
	if testing.Short() {
		o.duration = 300 * time.Millisecond
	}
	return o
}

// TestShardSmoke: TPC-C over loopback against a 4-shard node through the
// shard-aware client — HELLO shard map, pinned home-warehouse transactions,
// remote clauses through two-phase commit — ending in consistency checks
// C1–C5 (run returns their failure as its error).
func TestShardSmoke(t *testing.T) {
	n := startNode(t, node.Config{Shards: 4})
	rep, err := run(smokeOptions(n.Addr(), 4), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.committed == 0 || rep.cross == 0 {
		t.Fatalf("committed=%d cross-shard=%d: the sharded paths were not exercised", rep.committed, rep.cross)
	}
}

// TestHTAPSmoke: mixed OLTP/OLAP against a node running the migrator. Two
// analysts aggregate over the ORDERLINE and STOCK lanes while the workers
// write them; the migrator must actually have shipped ORDERLINE rows into
// column chunks.
func TestHTAPSmoke(t *testing.T) {
	n := startNode(t, node.Config{HTAP: true})
	o := smokeOptions(n.Addr(), 2)
	o.olap = 2
	rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rep.lanes {
		if l.Name == tpcc.TableOrderLine && l.MigratedRows > 0 {
			return
		}
	}
	t.Fatalf("migrator shipped no rows into the %s lane: %+v", tpcc.TableOrderLine, rep.lanes)
}

// TestReplicaReadSmoke: a persistent primary and two replica nodes; OLTP
// writes to the primary while pooled analysts spread Session reads across
// the replicas, re-checking read-your-writes on every acked row, and the
// final consistency check runs against a replica.
func TestReplicaReadSmoke(t *testing.T) {
	p := startNode(t, node.Config{Data: t.TempDir()})
	o := smokeOptions(p.Addr(), 2)
	for _, id := range []string{"r1", "r2"} {
		r := startNode(t, node.Config{
			TokenWait: 150 * time.Millisecond,
			Replica:   repl.ReplicaConfig{Upstream: p.Addr(), ReplicaID: id},
		})
		if o.readReplicas != "" {
			o.readReplicas += ","
		}
		o.readReplicas += r.Addr()
		o.checkAddr = r.Addr()
	}
	rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.pool.ReplicaReads == 0 {
		t.Fatalf("no read was ever served by a replica: %+v", rep.pool)
	}
	if rep.sessionReads == 0 || rep.rywViolations != 0 {
		t.Fatalf("read-your-writes: %d violations in %d checks", rep.rywViolations, rep.sessionReads)
	}
	if !rep.checkedReplica {
		t.Fatal("the consistency check did not run against a replica")
	}
}

// TestRunAgainstLoadedServer: a persistent node keeps its TPC-C across a
// restart, and a second run attaches to it instead of loading, runs, and
// passes its consistency check. A run whose flags would load another layout
// is refused, naming the table and both row counts.
func TestRunAgainstLoadedServer(t *testing.T) {
	dir := t.TempDir()
	o := smokeOptions("", 2)
	o.duration = 300 * time.Millisecond
	for i := 0; i < 2; i++ {
		n := startNode(t, node.Config{Data: dir})
		o.addr = n.Addr()
		var out strings.Builder
		if _, err := run(o, &out); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		if attached := strings.Contains(out.String(), "attached"); attached != (i == 1) {
			t.Fatalf("run %d attached=%v:\n%s", i+1, attached, out.String())
		}
		n.Shutdown()
	}
	n := startNode(t, node.Config{Data: dir})
	o.addr, o.warehouses = n.Addr(), 3
	_, err := run(o, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2 WAREHOUSE rows") || !strings.Contains(err.Error(), "loads 3") {
		t.Fatalf("run with -warehouses 3 against 2 loaded: %v", err)
	}
}
