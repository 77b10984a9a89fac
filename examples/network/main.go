// Network quickstart: the wire protocol end to end in one process. A
// hybridgc server listens on loopback, a pooled client connects, and the
// paper's mixed-workload scenario plays out remotely: an OLAP session opens
// a long-lived SQL cursor whose snapshot is pinned *inside the server*,
// OLTP writers keep committing through the same server, and HybridGC still
// reclaims their garbage — the table collector confines the cursor's
// snapshot to the table its compiled plan scans, so unrelated tables stay
// collectable. The cursor then streams its rows chunk by chunk, unchanged,
// and a graceful drain closes everything down.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/gc"
	"hybridgc/internal/node"
	"hybridgc/internal/server"
)

func main() {
	// One node, as `hybridgcd -token quickstart` starts it: the engine with
	// all three collectors running behind a loopback server.
	n, err := node.Start(node.Config{
		GC:     gc.ModeHG,
		Server: server.Config{Addr: "127.0.0.1:0", Token: "quickstart"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Shutdown()
	fmt.Printf("server listening on %s\n", n.Addr())

	cl, err := client.Dial(client.Config{Addr: n.Addr(), Token: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	exec := func(stmt string) {
		if _, err := cl.Exec(stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}
	exec("CREATE TABLE accounts (id INT, balance INT)")
	exec("CREATE TABLE hot (id INT, v INT)")
	for i := 1; i <= 50; i++ {
		exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d)", i, i*100))
	}
	exec("INSERT INTO hot VALUES (1, 0)")

	// The OLAP side: a remote cursor. Its snapshot lives in the server's
	// session for this connection, pinned until QCLOSE (or disconnect).
	cur, err := cl.Query("SELECT id, balance FROM accounts")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote cursor open on ACCOUNTS at snapshot %d, columns %v\n",
		cur.SnapshotTS(), cur.Columns())

	// The OLTP side: keep updating HOT through the same server, piling up
	// versions the pinned snapshot would block a single-timestamp collector
	// from reclaiming.
	for i := 1; i <= 400; i++ {
		exec(fmt.Sprintf("UPDATE hot SET v = %d WHERE id = 1", i))
	}
	time.Sleep(400 * time.Millisecond) // past the long-lived threshold and a table-collector period

	st, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with the cursor still open: versions live=%d reclaimed=%d (cursors open=%d)\n",
		st.VersionsLive, st.VersionsReclaimed, st.CursorsOpen)
	if st.VersionsReclaimed == 0 {
		fmt.Println("note: no reclamation observed — the table collector should have confined the cursor")
	} else {
		fmt.Println("HybridGC reclaimed OLTP garbage despite the pinned remote snapshot")
	}

	// The cursor still streams its consistent snapshot, chunk by chunk.
	var rows int
	for !cur.Exhausted() {
		chunk, _, err := cur.Fetch(16)
		if err != nil {
			log.Fatal(err)
		}
		rows += len(chunk)
	}
	fmt.Printf("cursor streamed %d rows in chunks of 16, all at snapshot %d\n", rows, cur.SnapshotTS())
	if err := cur.Close(); err != nil {
		log.Fatal(err)
	}

	// Graceful drain: in-flight work finishes, cursors release, sockets close.
	n.Shutdown()
	fmt.Printf("server drained; served %d requests over %d connections\n",
		st.Requests, st.ConnsTotal)
}
