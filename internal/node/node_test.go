package node_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/fault"
	"hybridgc/internal/gc"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/wal"
)

func start(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	cfg.Server.Addr = "127.0.0.1:0"
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	return n
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaRebootstrap forces ErrBootstrapRequired on a replica node — its
// applier is stalled while the primary rotates past the segment-lag bound and
// demotes it — and checks the lifecycle promises: the node rebuilds its
// engine on its own, the address survives, View never hands out a closed
// engine, and a token-gated read bounces while the replica is behind and
// succeeds once the rebuilt one has caught up.
func TestReplicaRebootstrap(t *testing.T) {
	p := start(t, node.Config{
		GC:     gc.ModeHG,
		Data:   t.TempDir(),
		Source: repl.SourceConfig{MaxSegmentLag: 1, HeartbeatEvery: 10 * time.Millisecond},
	})
	r := start(t, node.Config{
		GC:        gc.ModeHG,
		TokenWait: 20 * time.Millisecond,
		Replica: repl.ReplicaConfig{
			Upstream: p.Addr(), ReplicaID: "r1",
			ReportEvery: 10 * time.Millisecond, ReconnectBase: 10 * time.Millisecond,
		},
	})
	addr := r.Addr()

	pcl := dial(t, p.Addr())
	if _, err := pcl.Exec("CREATE TABLE kv (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	res, err := pcl.Exec("INSERT INTO kv VALUES (1, 10)")
	if err != nil {
		t.Fatal(err)
	}
	rcl := dial(t, addr)
	waitFor(t, "the replica to serve the first row behind its token", func() bool {
		got, err := rcl.ExecAt("SELECT v FROM kv WHERE id = 1", res.Token)
		return err == nil && len(got.Rows) == 1
	})

	// Readers hold the engine through View for the whole run; whatever the
	// node is doing, the engine they are handed must be open.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.View(func(eng engine.Engine, rep *repl.Replica) {
				if rep == nil {
					t.Error("replica node handed out a nil applier")
				}
				if err := eng.Shard(0).Manager().Barrier(); err != nil {
					t.Errorf("View handed out a closed engine: %v", err)
				}
			})
		}
	}()

	// Stall the applier on the next record, then roll the primary's log past
	// the lag bound: the heartbeat check demotes the stuck stream.
	fault.Enable(repl.FPApplyStall, fault.Sleep(300*time.Millisecond))
	t.Cleanup(func() { fault.Disable(repl.FPApplyStall) })
	sent := p.Stats().ReplRecordsSent
	res, err = pcl.Exec("INSERT INTO kv VALUES (2, 20)")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stalling record to ship", func() bool { return p.Stats().ReplRecordsSent > sent })
	if _, err := rcl.ExecAt("SELECT v FROM kv WHERE id = 2", res.Token); !errors.Is(err, core.ErrReplicaBehind) {
		t.Fatalf("gated read on a stalled replica: %v, want ErrReplicaBehind", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Engine().Shard(0).WAL().Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the replica node to re-bootstrap", func() bool { return r.Rebootstraps() >= 1 })
	fault.Disable(repl.FPApplyStall)

	if r.Addr() != addr {
		t.Fatalf("address moved across the re-bootstrap: %s -> %s", addr, r.Addr())
	}
	// The rebuilt server is a new listener on the old port; the pooled
	// client redials it.
	waitFor(t, "the rebuilt replica to serve the gated read", func() bool {
		got, err := rcl.ExecAt("SELECT v FROM kv WHERE id = 2", res.Token)
		return err == nil && len(got.Rows) == 1 && got.Rows[0][0].I == 20
	})
	if st := r.Stats(); st.ReplRole != "replica" || st.ReplAppliedLSN < res.Token {
		t.Fatalf("stats after the re-bootstrap: role %q applied %d, want replica at or past %d", st.ReplRole, st.ReplAppliedLSN, res.Token)
	}
	if st := p.Stats(); st.ReplDemotions == 0 {
		t.Fatalf("primary never demoted the stalled replica: %+v", st.Replicas)
	}
}

// TestShutdownJoinsCheckpoint: a checkpoint in flight when Shutdown is called
// finishes before the engine closes — Shutdown cannot return while the
// checkpoint is still held at its failpoint — and the directory reopens with
// every acknowledged row.
func TestShutdownJoinsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := node.Config{Data: dir, CheckpointEvery: 2 * time.Millisecond, Server: server.Config{Addr: "127.0.0.1:0"}}
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	cl := dial(t, n.Addr())
	if _, err := cl.Exec("CREATE TABLE kv (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	for i := 1; i <= rows; i++ {
		if _, err := cl.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*7)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()

	const hold = 300 * time.Millisecond
	before := fault.FiredCount(wal.FPCheckpointWrite)
	fault.Enable(wal.FPCheckpointWrite, fault.Sleep(hold))
	t.Cleanup(func() { fault.Disable(wal.FPCheckpointWrite) })
	waitFor(t, "a checkpoint to be in flight", func() bool { return fault.FiredCount(wal.FPCheckpointWrite) > before })
	held := time.Now()
	n.Shutdown()
	if d := time.Since(held); d < hold-20*time.Millisecond {
		t.Fatalf("Shutdown returned %v into a %v checkpoint: the engine closed under it", d, hold)
	}
	fault.Disable(wal.FPCheckpointWrite)
	n.Shutdown() // second call: nothing left to do, and nothing to wait for
	if err := n.Wait(); err != nil {
		t.Fatalf("Wait after a clean Shutdown: %v", err)
	}

	cfg.CheckpointEvery = 0
	n2, err := node.Start(cfg)
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	defer n2.Shutdown()
	res, err := dial(t, n2.Addr()).Exec("SELECT SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(7 * rows * (rows + 1) / 2); len(res.Rows) != 1 || res.Rows[0][0].I != want {
		t.Fatalf("recovered SUM(v) = %v, want %d", res.Rows, want)
	}
}

// TestValidate: every setting a role would ignore is an error that names
// the flag carrying it.
func TestValidate(t *testing.T) {
	replica := repl.ReplicaConfig{Upstream: "127.0.0.1:1"}
	for _, tc := range []struct {
		name string
		cfg  node.Config
		want string // substring of the error; "" accepts
	}{
		{"standalone", node.Config{}, ""},
		{"primary", node.Config{Data: "d", Sync: true, CheckpointEvery: time.Second, Source: repl.SourceConfig{StaleAfter: time.Second}}, ""},
		{"sharded persistent", node.Config{Shards: 4, Data: "d", CheckpointEvery: time.Second}, ""},
		{"htap", node.Config{HTAP: true, HTAPEvery: time.Millisecond}, ""},
		{"replica", node.Config{Replica: replica, TokenWait: time.Second}, ""},
		{"replica sharded", node.Config{Replica: replica, Shards: 2}, "-shards"},
		{"replica data", node.Config{Replica: replica, Data: "d"}, "-data"},
		{"replica checkpoint", node.Config{Replica: replica, CheckpointEvery: time.Second}, "-checkpoint-every"},
		{"replica htap", node.Config{Replica: replica, HTAP: true}, "-htap"},
		{"replica htap-every", node.Config{Replica: replica, HTAPEvery: time.Second}, "-htap-every"},
		{"replica source", node.Config{Replica: replica, Source: repl.SourceConfig{StaleAfter: time.Second}}, "-repl-stale-after"},
		{"sync without data", node.Config{Sync: true}, "-sync"},
		{"checkpoint without data", node.Config{CheckpointEvery: time.Second}, "-checkpoint-every"},
		{"htap-every without htap", node.Config{HTAPEvery: time.Second}, "-htap-every"},
		{"token-wait on a primary", node.Config{TokenWait: time.Second}, "-token-wait"},
		{"replica-id on a primary", node.Config{Replica: repl.ReplicaConfig{ReplicaID: "r"}}, "-replica-id"},
		{"source without data", node.Config{Source: repl.SourceConfig{WriteTimeout: time.Second}}, "-repl-write-timeout"},
		{"source on shards", node.Config{Shards: 2, Data: "d", Source: repl.SourceConfig{StaleAfter: time.Second}}, "-repl-stale-after"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
		if tc.want != "" {
			if _, err := node.Start(tc.cfg); err == nil {
				t.Errorf("%s: Start accepted what Validate rejects", tc.name)
			}
		}
	}
}
