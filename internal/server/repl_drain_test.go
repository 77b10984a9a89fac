package server_test

import (
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/txn"
)

// TestDrainEndsReplicationStream covers graceful shutdown with an active
// replication stream and a cursor open on the replica: the drain must end
// the hijacked stream (not hang on it). The replica's cursor holds nothing on
// the primary, before the drain or after. The topology is two nodes; the
// primary's Shutdown drains its server first, and its stats stay readable
// afterwards.
func TestDrainEndsReplicationStream(t *testing.T) {
	start := func(cfg node.Config) *node.Node {
		cfg.Server = server.Config{Addr: "127.0.0.1:0"}
		n, err := node.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Shutdown)
		return n
	}
	primary := start(node.Config{
		Data:   t.TempDir(),
		Source: repl.SourceConfig{HeartbeatEvery: 10 * time.Millisecond},
	})
	pdb := primary.Engine().Shard(0)

	tid, err := pdb.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(img string) {
		t.Helper()
		err := pdb.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
			_, err := tx.Insert(tid, []byte(img))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	insert("before")

	replica := start(node.Config{Replica: repl.ReplicaConfig{
		Upstream:      primary.Addr(),
		ReplicaID:     "r1",
		ReportEvery:   10 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
	}})
	if err := replica.Replica().WaitLSN(pdb.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// An open snapshot on the replica reads the replica's engine; the
	// primary's horizon moves past it with the next commit.
	var cur engine.Cursor
	replica.View(func(eng engine.Engine, _ *repl.Replica) { cur, err = eng.OpenCursor(tid) })
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	at := cur.SnapshotTS()
	insert("after-cursor")
	if h := pdb.Manager().View().Horizon(); h <= at {
		t.Fatalf("primary horizon %d held at the replica cursor %d", h, at)
	}

	// Drain. Shutdown returns only after every connection goroutine —
	// including the hijacked stream — has exited.
	done := make(chan struct{})
	go func() {
		primary.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on the replication stream")
	}

	st := primary.Stats()
	if st.GlobalHorizon <= at {
		t.Fatalf("primary horizon %d held at the replica cursor %d after the drain", st.GlobalHorizon, at)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].Connected {
		t.Fatalf("replica stat after drain: %+v", st.Replicas)
	}
}
