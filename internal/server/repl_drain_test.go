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

// TestDrainEndsReplicationStreamAndReleasesPin covers graceful shutdown with
// an active replication stream: the drain must end the hijacked stream (not
// hang on it), and the pin the replica's open snapshot holds in the primary's
// registry must be released so the GC horizon clears with the drain. The
// topology is two nodes; the primary's Shutdown drains its server first, and
// its stats stay readable afterwards.
func TestDrainEndsReplicationStreamAndReleasesPin(t *testing.T) {
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

	// An open snapshot on the replica pins the primary's horizon.
	var cur engine.Cursor
	replica.View(func(eng engine.Engine, _ *repl.Replica) { cur, err = eng.OpenCursor(tid) })
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	pin := cur.SnapshotTS()
	deadline := time.Now().Add(5 * time.Second)
	for pdb.Manager().View().Horizon() != pin {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the replica pin to reach the primary")
		}
		time.Sleep(3 * time.Millisecond)
	}
	insert("after-pin") // give the horizon somewhere to go
	if h := pdb.Manager().View().Horizon(); h != pin {
		t.Fatalf("horizon %d, want pin %d", h, pin)
	}

	// Drain. Shutdown returns only after every connection goroutine —
	// including the hijacked stream — has exited, so the pin release is
	// observable immediately, even though the replica-side cursor is still
	// open: a drained primary no longer trusts (or hears) remote snapshots.
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
	if st.GlobalHorizon <= pin {
		t.Fatalf("drain left the replica pin in place: horizon %d, pin %d", st.GlobalHorizon, pin)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].Connected {
		t.Fatalf("replica stat after drain: %+v", st.Replicas)
	}
	if st.Replicas[0].PinnedSTS != 0 {
		t.Fatalf("replica stat still shows a pin after drain: %+v", st.Replicas[0])
	}
}
