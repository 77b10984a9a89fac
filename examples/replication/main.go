// Replication quickstart: a primary/replica pair in one process, and the
// cluster-wide GC horizon in action. A persistent primary serves writes and
// streams its WAL to a read-only replica; a long-lived cursor opened on the
// REPLICA pins garbage collection on the PRIMARY — the replica reports its
// oldest open snapshot upstream, where it joins the snapshot-timestamp
// registry every collector consults. Closing the cursor releases the pin
// and reclamation catches up. The demo finishes with a graceful drain on
// both sides.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/gc"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
)

func main() {
	// The primary: persistent (WAL + checkpoints — replication is WAL
	// shipping), all collectors running — what `hybridgcd -data DIR` starts.
	dir, err := os.MkdirTemp("", "hgc-repl-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	primary, err := node.Start(node.Config{
		GC:     gc.ModeHG,
		Data:   dir,
		Server: server.Config{Addr: "127.0.0.1:0"},
		Source: repl.SourceConfig{HeartbeatEvery: 20 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Shutdown()
	pdb := primary.Engine().Shard(0)
	fmt.Printf("primary listening on %s (data in %s)\n", primary.Addr(), dir)

	// Seed some data before the replica exists — it will arrive there via
	// the bootstrap checkpoint rather than the live tail.
	pcl, err := client.Dial(client.Config{Addr: primary.Addr()})
	if err != nil {
		log.Fatal(err)
	}
	defer pcl.Close()
	exec := func(stmt string) {
		if _, err := pcl.Exec(stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}
	exec("CREATE TABLE accounts (id INT, balance INT)")
	for i := 1; i <= 20; i++ {
		exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d)", i, i*100))
	}

	// The replica — `hybridgcd -replica-of ADDR`: an empty read-only engine
	// that bootstraps from the primary's checkpoint, tails its WAL, and
	// serves ordinary clients read-only.
	replica, err := node.Start(node.Config{
		GC:     gc.ModeHG,
		Server: server.Config{Addr: "127.0.0.1:0"},
		Replica: repl.ReplicaConfig{
			Upstream:    primary.Addr(),
			ReplicaID:   "r1",
			ReportEvery: 20 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer replica.Shutdown()

	if err := replica.Replica().WaitLSN(pdb.WAL().NextLSN(), 5*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica on %s caught up at LSN %s\n", replica.Addr(), replica.Replica().AppliedLSN())

	// Read the replicated rows through the replica's own server.
	rcl, err := client.Dial(client.Config{Addr: replica.Addr()})
	if err != nil {
		log.Fatal(err)
	}
	defer rcl.Close()
	res, err := rcl.Exec("SELECT id, balance FROM accounts")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica serves %d replicated rows (writes there fail read-only)\n", len(res.Rows))

	// The paper's blocker, cluster-wide: a long-lived cursor on the REPLICA.
	// Its snapshot is reported upstream and pins the PRIMARY's GC horizon.
	cur, err := rcl.Query("SELECT id, balance FROM accounts")
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // a couple of report intervals
	fmt.Printf("replica cursor open at snapshot %d; primary horizon now %d\n",
		cur.SnapshotTS(), pdb.Manager().View().Horizon())

	// OLTP churn on the primary while the remote snapshot is open.
	for i := 1; i <= 300; i++ {
		exec(fmt.Sprintf("UPDATE accounts SET balance = %d WHERE id = 1", i))
	}
	time.Sleep(600 * time.Millisecond) // one period of the slowest collector
	st, err := pcl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under the remote pin: versions live=%d reclaimed=%d, horizon=%d (pin %d)\n",
		st.VersionsLive, st.VersionsReclaimed, st.GlobalHorizon, cur.SnapshotTS())

	// Release the replica-side snapshot; the pin clears within a report
	// interval and the primary's horizon advances.
	if err := cur.Close(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	fmt.Printf("cursor closed; primary horizon advanced to %d\n", pdb.Manager().View().Horizon())

	// Drain both sides: the replica's applier stops and its server drains;
	// the primary's stream ends with a drain notice and its pins release.
	replica.Shutdown()
	primary.Shutdown()
	fmt.Printf("drained; replica applied %s of the primary's WAL\n", replica.Replica().AppliedLSN())
}
