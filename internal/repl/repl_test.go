package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/server"
	"hybridgc/internal/sql"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// fastSource keeps stream timing tight enough for loopback tests without
// making staleness sweeps race the assertions.
func fastSource() SourceConfig {
	return SourceConfig{HeartbeatEvery: 10 * time.Millisecond, StaleAfter: 30 * time.Second}
}

type primary struct {
	db   *core.DB
	src  *Source
	srv  *server.Server
	addr string
}

// startPrimary opens a persistent engine, wraps it in a replication source
// and serves it on a loopback listener. tweak, when set, adjusts the engine
// config (GC periods for the workload test) before Open.
func startPrimary(t testing.TB, scfg SourceConfig, tweak func(*core.Config)) *primary {
	t.Helper()
	cfg := core.Config{Persistence: &core.Persistence{Dir: t.TempDir()}}
	if tweak != nil {
		tweak(&cfg)
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(db, scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, server.Config{Repl: src, StatsHook: src.PopulateStats})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		<-served
		src.Close()
		db.Close()
	})
	return &primary{db: db, src: src, srv: srv, addr: ln.Addr().String()}
}

type replica struct {
	db     *core.DB
	rep    *Replica
	runErr chan error
	exited bool
	once   sync.Once
}

// startReplica opens a fresh read-only engine, which runs its own collector
// loop as every node role does (on periods short enough for tests), and
// streams the primary into it until shutdown.
func startReplica(t testing.TB, addr, id string) *replica {
	t.Helper()
	rdb, err := core.Open(core.Config{
		ReadOnly: true, AutoGC: true, LongLivedThreshold: 50 * time.Millisecond,
		GC: gc.Periods{GT: 20 * time.Millisecond, TG: 60 * time.Millisecond, SI: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(rdb, ReplicaConfig{
		Upstream:      addr,
		ReplicaID:     id,
		ReportEvery:   10 * time.Millisecond,
		ReconnectBase: 10 * time.Millisecond,
		StallTimeout:  3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &replica{db: rdb, rep: rep, runErr: make(chan error, 1)}
	go func() { r.runErr <- rep.Run() }()
	t.Cleanup(r.shutdown)
	return r
}

func (r *replica) shutdown() {
	r.once.Do(func() {
		r.rep.Stop()
		if !r.exited {
			select {
			case <-r.runErr:
			case <-time.After(5 * time.Second):
			}
		}
		r.db.Close()
	})
}

// waitExit blocks until Run returns (a demotion or stream-fatal error path).
func (r *replica) waitExit(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-r.runErr:
		r.exited = true
		return err
	case <-time.After(timeout):
		t.Fatal("replica Run did not exit")
		return nil
	}
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

func waitCaughtUp(t testing.TB, p *primary, r *replica) {
	t.Helper()
	if err := r.rep.WaitLSN(p.db.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func mustCreateTable(t testing.TB, db *core.DB, name string) ts.TableID {
	t.Helper()
	tid, err := db.CreateTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

func mustInsert(t testing.TB, db *core.DB, tid ts.TableID, img string) ts.RID {
	t.Helper()
	var rid ts.RID
	err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte(img))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

func mustUpdate(t testing.TB, db *core.DB, tid ts.TableID, rid ts.RID, img string) {
	t.Helper()
	err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		return tx.Update(tid, rid, []byte(img))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readRow reads a row on the replica at its current commit horizon.
func readRow(db *core.DB, tid ts.TableID, rid ts.RID) (string, bool) {
	img, ok := db.ReadAt(tid, rid, db.Manager().CurrentTS())
	return string(img), ok
}

func TestBootstrapCatchUpAndLiveTail(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	var rids []ts.RID
	for i := 0; i < 5; i++ {
		rids = append(rids, mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i)))
	}

	r := startReplica(t, p.addr, "r1")
	waitCaughtUp(t, p, r)

	// DDL replicated with the primary-assigned table ID.
	if got := r.db.TableID("accounts"); got != tid {
		t.Fatalf("replica table id = %d, want %d", got, tid)
	}
	for i, rid := range rids {
		img, ok := readRow(r.db, tid, rid)
		if !ok || img != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d: got %q ok=%v", i, img, ok)
		}
	}

	// Live tail: a post-bootstrap commit arrives without reconnecting.
	rid := mustInsert(t, p.db, tid, "after-bootstrap")
	waitCaughtUp(t, p, r)
	if img, ok := readRow(r.db, tid, rid); !ok || img != "after-bootstrap" {
		t.Fatalf("tailed row: got %q ok=%v", img, ok)
	}
	if n := r.rep.reconnects.Load(); n != 0 {
		t.Fatalf("live tail took %d reconnects", n)
	}

	// The replica's engine refuses local writes.
	if _, err := r.db.CreateTable("x"); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica DDL: %v, want ErrReadOnly", err)
	}
	err := r.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		_, err := tx.Insert(tid, []byte("w"))
		return err
	})
	if !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica insert: %v, want ErrReadOnly", err)
	}

	// A second stream under the same identity is refused while the first is
	// connected.
	if _, err := p.src.admit(wire.ReplStreamRequest{ReplicaID: "r1"}); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("duplicate stream admit: %v, want ErrBadRequest", err)
	}
}

func TestSegmentRetentionAndRestartRebootstrap(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	for i := 0; i < 4; i++ {
		mustInsert(t, p.db, tid, fmt.Sprintf("early-%d", i))
	}

	r1 := startReplica(t, p.addr, "dr")
	waitCaughtUp(t, p, r1)
	active := p.db.WAL().NextLSN().Segment()
	waitFor(t, 5*time.Second, "floor to reach the active segment", func() bool {
		low, ok := p.src.lowestNeeded()
		return ok && low >= active
	})
	floor, _ := p.src.lowestNeeded()

	// Kill the replica. Its floor must survive the disconnect (StaleAfter is
	// far away) and hold segment retention while checkpoints roll the log.
	r1.shutdown()
	for i := 0; i < 4; i++ {
		mustInsert(t, p.db, tid, fmt.Sprintf("late-%d", i))
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(p.db.PersistDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].Seq > floor {
		t.Fatalf("lowest retained segment %v passed the away replica's floor %d", segs, floor)
	}

	// The restarted replica keeps no local state: same identity, fresh
	// engine, bootstrap from checkpoint, then convergence.
	r2 := startReplica(t, p.addr, "dr")
	waitCaughtUp(t, p, r2)
	for i := 0; i < 4; i++ {
		if img, ok := readRow(r2.db, tid, ts.RID(i+1)); !ok || img != fmt.Sprintf("early-%d", i) {
			t.Fatalf("early row %d after re-bootstrap: %q ok=%v", i, img, ok)
		}
	}

	// Once it reports past the old floor, the next checkpoint prunes the
	// tail the dead incarnation was holding.
	waitFor(t, 5*time.Second, "floor to advance past the old incarnation", func() bool {
		low, ok := p.src.lowestNeeded()
		return ok && low > floor
	})
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err = wal.Segments(p.db.PersistDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].Seq <= floor {
		t.Fatalf("segments %v still retained below a dead floor %d", segs, floor)
	}

	// An incarnation that kept its engine and asks to resume inside the
	// pruned segment: the cursor finds no file, which is ErrReplTooOld on the
	// wire and a re-bootstrap on the replica.
	gdb, err := core.Open(core.Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gdb.Close()
	ghost, err := NewReplica(gdb, ReplicaConfig{Upstream: p.addr, ReplicaID: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Stop()
	ghost.applied.Store(uint64(wal.MakeLSN(floor, 0)))
	if err := ghost.streamOnce(); !errors.Is(err, ErrBootstrapRequired) || !strings.Contains(err.Error(), wire.ErrReplTooOld.Error()) {
		t.Fatalf("resume inside a pruned segment: %v, want ErrBootstrapRequired over ErrReplTooOld", err)
	}
	if _, ok := p.src.lowestNeeded(); !ok {
		t.Fatal("the refused resume disturbed the live replica's floor")
	}
}

func TestStreamDropReconnectsAndResumes(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	for i := 0; i < 3; i++ {
		mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i))
	}
	r := startReplica(t, p.addr, "r1")
	waitCaughtUp(t, p, r)

	fault.Enable(FPStreamDrop, fault.Once(), fault.ReturnErr(errors.New("injected stream drop")))
	t.Cleanup(func() { fault.Disable(FPStreamDrop) })
	waitFor(t, 5*time.Second, "replica to notice the drop", func() bool {
		return r.rep.reconnects.Load() >= 1
	})

	// The retry resumes from the applied LSN — no re-bootstrap — and the
	// stream keeps delivering.
	rid := mustInsert(t, p.db, tid, "post-drop")
	waitCaughtUp(t, p, r)
	if img, ok := readRow(r.db, tid, rid); !ok || img != "post-drop" {
		t.Fatalf("post-drop row: %q ok=%v", img, ok)
	}
	if got, want := r.db.Manager().CurrentTS(), p.db.Manager().CurrentTS(); got != want {
		t.Fatalf("replica at CID %d, primary at %d", got, want)
	}
}

func TestPartialSegmentShipFailureResumes(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	for i := 0; i < 6; i++ {
		mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i))
	}

	// The first catch-up attempt dies mid-segment; the replica must resume
	// from wherever its applied cursor reached, not restart from scratch.
	fault.Enable(FPPartialSegment, fault.After(3), fault.Once(), fault.ReturnErr(errors.New("injected catch-up abort")))
	t.Cleanup(func() { fault.Disable(FPPartialSegment) })

	r := startReplica(t, p.addr, "r1")
	waitCaughtUp(t, p, r)
	if n := r.rep.reconnects.Load(); n < 1 {
		t.Fatalf("catch-up abort caused %d reconnects, want >=1", n)
	}
	for i := 0; i < 6; i++ {
		if img, ok := readRow(r.db, tid, ts.RID(i+1)); !ok || img != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d after resumed catch-up: %q ok=%v", i, img, ok)
		}
	}
}

func TestLagDemotionForcesRebootstrap(t *testing.T) {
	scfg := fastSource()
	scfg.MaxSegmentLag = 1
	p := startPrimary(t, scfg, nil)
	tid := mustCreateTable(t, p.db, "accounts")
	mustInsert(t, p.db, tid, "seed")

	r := startReplica(t, p.addr, "laggard")
	waitCaughtUp(t, p, r)

	// Stall the applier, then ship one record so the applied cursor (and the
	// floor derived from it) freezes while the primary's log rolls forward.
	fault.Enable(FPApplyStall, fault.Sleep(1500*time.Millisecond))
	t.Cleanup(func() { fault.Disable(FPApplyStall) })
	sent := p.src.recordsSent.Load()
	mustInsert(t, p.db, tid, "stalled")
	waitFor(t, 5*time.Second, "the stalling record to ship", func() bool {
		return p.src.recordsSent.Load() > sent
	})
	for i := 0; i < 3; i++ {
		if _, err := p.db.WAL().Rotate(); err != nil {
			t.Fatal(err)
		}
	}

	// The heartbeat check demotes the stuck replica; its Run loop must
	// surface the re-bootstrap signal rather than retrying forever.
	err := r.waitExit(t, 10*time.Second)
	if !errors.Is(err, ErrBootstrapRequired) {
		t.Fatalf("stalled replica exited with %v, want ErrBootstrapRequired", err)
	}
	if n := p.src.demotions.Load(); n != 1 {
		t.Fatalf("demotions = %d, want 1", n)
	}
	low, ok := p.src.lowestNeeded()
	if ok {
		t.Fatalf("demoted replica still pins segment retention at %d", low)
	}
	fault.Disable(FPApplyStall)
	r.shutdown()

	// The operator response: a fresh engine under the same identity
	// bootstraps (demotion clears on a full bootstrap) and converges.
	r2 := startReplica(t, p.addr, "laggard")
	waitCaughtUp(t, p, r2)
	if img, ok := readRow(r2.db, tid, 2); !ok || img != "stalled" {
		t.Fatalf("post-demotion row: %q ok=%v", img, ok)
	}
}

func TestSQLCatalogFollowsReplication(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	cat := p.srv.Catalog()
	if err := cat.AttachHTAP(htap.NewManager(cat.Engine(), htap.Config{})); err != nil {
		t.Fatal(err)
	}
	sess := sql.NewSession(cat)
	for _, q := range []string{
		"CREATE TABLE kv (k INT, v TEXT)",
		"INSERT INTO kv VALUES (1, 'one')",
		"INSERT INTO kv VALUES (2, 'two')",
	} {
		if _, err := sess.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// A lane is a catalog row: the replica, bootstrapped after it was
	// enabled and checkpointed, must list it.
	if err := cat.EnableHTAP("kv"); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	r := startReplica(t, p.addr, "r1")
	waitCaughtUp(t, p, r)

	// A catalog attached to the empty read-only engine discovers replicated
	// schema lazily — the meta table only exists once the stream applied it.
	rcat, err := sql.NewCatalog(r.db)
	if err != nil {
		t.Fatal(err)
	}
	rsess := sql.NewSession(rcat)
	res, err := rsess.Execute("SELECT k, v FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("replica SELECT returned %d rows, want 2", len(res.Rows))
	}
	if _, err := rsess.Execute("INSERT INTO kv VALUES (3, 'three')"); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica SQL insert: %v, want ErrReadOnly", err)
	}
	if lanes, err := rcat.Lanes(); err != nil || len(lanes) != 1 || lanes[0] != "kv" {
		t.Fatalf("replica catalog lists lanes %q (%v), want [kv]", lanes, err)
	}
}

// TestTPCCUnderReplicaCursor is the acceptance scenario: TPC-C runs on the
// primary while a long cursor is held on a replica. The cursor reads the
// replica's own engine, so it holds nothing on the primary: the primary's
// horizon passes it. On the replica it is an ordinary long-lived snapshot:
// the replica's own hybrid collector keeps reclaiming above it (table GC
// around it, interval GC inside its table) while its horizon stays at it.
// After the release the replicated state must pass the TPC-C consistency
// checks read through the replica itself.
func TestTPCCUnderReplicaCursor(t *testing.T) {
	if testing.Short() {
		t.Skip("workload test")
	}
	p := startPrimary(t, SourceConfig{HeartbeatEvery: 20 * time.Millisecond, StaleAfter: 30 * time.Second},
		func(c *core.Config) {
			c.GC = gc.Periods{GT: 20 * time.Millisecond, TG: 60 * time.Millisecond, SI: 50 * time.Millisecond}
			c.LongLivedThreshold = 50 * time.Millisecond
		})
	driver, err := tpcc.New(p.db, tpcc.Config{
		Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Load(); err != nil {
		t.Fatal(err)
	}
	p.db.GC().Start()
	defer p.db.GC().Stop()

	r := startReplica(t, p.addr, "analytics")
	waitCaughtUp(t, p, r)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopped := false
	stopWorkers := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer stopWorkers()
	for w := 1; w <= 2; w++ {
		wk := driver.NewWorker(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(1<<62, stop); err != nil {
				t.Errorf("worker %d: %v", wk.Warehouse(), err)
			}
		}()
	}

	// Open the long-duration cursor on the replica mid-run.
	time.Sleep(100 * time.Millisecond)
	cur, err := r.db.OpenCursor(r.db.TableID(tpcc.TableStock))
	if err != nil {
		t.Fatal(err)
	}
	at := cur.SnapshotTS()
	rgc := r.db.GC()
	above := func() int64 { return rgc.ReclaimedByTG() + rgc.ReclaimedBySI() }
	before, primaryBefore := above(), p.db.Stats().VersionsReclaimed

	// The primary's horizon passes the replica's open snapshot, and its
	// collector keeps reclaiming, as if the replica did not exist.
	waitFor(t, 5*time.Second, "the primary's horizon to pass the replica cursor", func() bool {
		return p.db.Manager().View().Horizon() > at
	})
	waitFor(t, 5*time.Second, "hybrid GC on the primary to reclaim", func() bool {
		return p.db.Stats().VersionsReclaimed > primaryBefore
	})
	// The replica's own collector reclaims above its own cursor, whose
	// snapshot still holds the replica's horizon.
	waitFor(t, 5*time.Second, "the replica's table and interval GC to reclaim above its cursor", func() bool {
		return above() > before
	})
	if h := r.db.Manager().View().Horizon(); h > at {
		t.Fatalf("replica horizon %d passed its own open cursor %d", h, at)
	}

	stopWorkers()
	cur.Close()

	// Converge, then run the consistency checks against the replica.
	waitCaughtUp(t, p, r)
	driver.SetCheckBackend(tpcc.LocalBackend(r.db))
	if err := driver.Check(); err != nil {
		t.Fatalf("consistency check through the replica: %v", err)
	}
}

// TestCorruptBootstrapCheckpointInstallsNothing: a replica handed a
// checkpoint with one flipped byte checks its CRC before installing, so its
// engine stays empty however often it retries.
func TestCorruptBootstrapCheckpointInstallsNothing(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	for i := 0; i < 20; i++ {
		mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i))
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := wal.CheckpointPath(p.db.PersistDir())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rdb, err := core.Open(core.Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep, err := NewReplica(rdb, ReplicaConfig{
		Upstream: p.addr, ReplicaID: "corrupt",
		ReportEvery: 10 * time.Millisecond, ReconnectBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- rep.Run() }()
	deadline := time.Now().Add(10 * time.Second)
	for rep.reconnects.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("replica never retried the corrupt bootstrap")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.Stop()
	if err := <-runErr; err != nil {
		t.Fatalf("replica Run = %v", err)
	}
	if tables, cid := rdb.Tables(), rdb.Manager().CurrentTS(); len(tables) != 0 || cid != 0 {
		t.Fatalf("corrupt checkpoint installed: tables %v, commit timestamp %d", tables, cid)
	}
}

// TestRebootstrapRejectsNewerCheckpoint covers the divergence hazard of a
// replica whose first bootstrap died after installing its checkpoint but
// before a single record advanced the applied cursor: if the primary has
// checkpointed since (the commits in between possibly living only in pruned
// segments), the retried bootstrap ships a *newer* checkpoint, and silently
// skipping it would lose every commit between the two checkpoint CIDs. The
// replica must refuse with ErrBootstrapRequired so the operator restarts on
// an empty engine.
func TestRebootstrapRejectsNewerCheckpoint(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	mustInsert(t, p.db, tid, "early")
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck1bytes, err := os.ReadFile(wal.CheckpointPath(p.db.PersistDir()))
	if err != nil {
		t.Fatal(err)
	}
	ck1, err := wal.NewCheckpointReader(bytes.NewReader(ck1bytes))
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the first attempt: checkpoint installed, stream dead.
	rdb, err := core.Open(core.Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.ApplyCheckpoint(ck1); err != nil {
		t.Fatal(err)
	}

	// Meanwhile the primary commits more and checkpoints again; with no
	// floor registered for this replica, nothing retains the old segments.
	rid := mustInsert(t, p.db, tid, "belated")
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rep, err := NewReplica(rdb, ReplicaConfig{
		Upstream: p.addr, ReplicaID: "zombie",
		ReportEvery: 10 * time.Millisecond, ReconnectBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- rep.Run() }()
	select {
	case err := <-runErr:
		if !errors.Is(err, ErrBootstrapRequired) {
			t.Fatalf("stale re-bootstrap exited with %v, want ErrBootstrapRequired", err)
		}
	case <-time.After(10 * time.Second):
		rep.Stop()
		t.Fatal("stale re-bootstrap did not refuse the newer checkpoint")
	}
	rep.Stop()

	// The operator path: a fresh engine under the same identity bootstraps
	// and sees both commits.
	r2 := startReplica(t, p.addr, "zombie")
	waitCaughtUp(t, p, r2)
	if img, ok := readRow(r2.db, tid, rid); !ok || img != "belated" {
		t.Fatalf("post-rebuild row: %q ok=%v", img, ok)
	}
}

// TestBootstrapJoinsMaturePrimaryDespiteLagBound: a fresh replica joining a
// primary whose active segment is already far past MaxSegmentLag starts with
// a bootstrap floor of 0; the lag bound must stay out of the picture while
// the initial catch-up is still being applied, or the replica can never join
// (demote → re-bootstrap → demote, forever).
func TestBootstrapJoinsMaturePrimaryDespiteLagBound(t *testing.T) {
	scfg := fastSource()
	scfg.MaxSegmentLag = 1
	p := startPrimary(t, scfg, nil)
	tid := mustCreateTable(t, p.db, "accounts")
	var rids []ts.RID
	for s := 0; s < 4; s++ {
		for i := 0; i < 3; i++ {
			rids = append(rids, mustInsert(t, p.db, tid, fmt.Sprintf("seg%d-row%d", s, i)))
		}
		if _, err := p.db.WAL().Rotate(); err != nil {
			t.Fatal(err)
		}
	}

	// Slow the applier so the catch-up apply spans many heartbeat ticks —
	// plenty of chances for an over-eager lag check to demote the joiner.
	fault.Enable(FPApplyStall, fault.Sleep(20*time.Millisecond))
	t.Cleanup(func() { fault.Disable(FPApplyStall) })

	r := startReplica(t, p.addr, "joiner")
	waitCaughtUp(t, p, r)
	fault.Disable(FPApplyStall)
	if n := p.src.demotions.Load(); n != 0 {
		t.Fatalf("joining replica was demoted %d times", n)
	}
	for i, rid := range rids {
		if img, ok := readRow(r.db, tid, rid); !ok || img == "" {
			t.Fatalf("row %d missing after join: ok=%v", i, ok)
		}
	}
}

// TestDrainDuringCatchUpEndsPromptly: server shutdown must not wait for a
// slow segment catch-up to finish shipping — the stream checks the drain
// flag per record and ends with RmEnd(Drain) mid-catch-up.
func TestDrainDuringCatchUpEndsPromptly(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	for i := 0; i < 300; i++ {
		mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i))
	}

	// Throttle catch-up to ~10ms per record: the full sweep would take ~3s.
	fault.Enable(FPPartialSegment, fault.Sleep(10*time.Millisecond))
	t.Cleanup(func() { fault.Disable(FPPartialSegment) })

	r := startReplica(t, p.addr, "slowpoke")
	waitFor(t, 5*time.Second, "catch-up to start", func() bool {
		return p.src.recordsSent.Load() >= 10
	})
	start := time.Now()
	p.srv.Shutdown(10 * time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown during catch-up took %v", elapsed)
	}
	r.shutdown()
}

// replicaStat is the primary's STATS row for its only replica.
func replicaStat(t *testing.T, p *primary) wire.ReplicaStat {
	t.Helper()
	var st wire.Stats
	p.src.PopulateStats(&st)
	if len(st.Replicas) != 1 {
		t.Fatalf("primary reports %d replicas, want 1", len(st.Replicas))
	}
	return st.Replicas[0]
}

// TestSlowReplicaLagsWithoutTeardown: a replica whose applier stops while the
// primary commits a burst — more records than any side buffer was ever sized
// for, more bytes than the socket holds — simply lags. The stream is not torn
// down, the replica stays connected in the primary's view for the whole
// burst, and nothing ships twice.
func TestSlowReplicaLagsWithoutTeardown(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	rid := mustInsert(t, p.db, tid, "v0")
	r := startReplica(t, p.addr, "slow")
	waitCaughtUp(t, p, r)

	const burst, size = 12000, 2048
	fault.Enable(FPApplyStall, fault.Once(), fault.Sleep(300*time.Millisecond))
	t.Cleanup(func() { fault.Disable(FPApplyStall) })
	img := strings.Repeat("x", size)
	for i := 0; i < burst; i++ {
		mustUpdate(t, p.db, tid, rid, img)
		if i%64 == 0 {
			if st := replicaStat(t, p); !st.Connected {
				t.Fatalf("after %d commits of the burst the replica's row is %+v: it left the view", i, st)
			}
		}
	}
	waitCaughtUp(t, p, r)
	if n := r.rep.reconnects.Load(); n != 0 {
		t.Fatalf("the slow replica's stream was torn down %d times", n)
	}
	// Both counters trail what they count (the source's moves once the write
	// has returned, the replica's once the apply has), so they are compared
	// when they have settled: a record shipped twice leaves them apart.
	waitFor(t, 5*time.Second, "records sent and records applied to agree", func() bool {
		return p.src.recordsSent.Load() == r.rep.recordsApplied.Load()
	})
}

// TestFloorNeverPassesTheCursor: the segment floor is the lower of the applied
// LSN's segment and the cursor's, so a record that has not shipped is never
// prunable — first as the rule itself, then end to end: a record sits
// unshipped behind a stalled stream while the log rotates and checkpoints,
// the stream dies, and the replica resumes from its applied LSN.
func TestFloorNeverPassesTheCursor(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	mustInsert(t, p.db, tid, "seed")

	// A replica that applied everything shipped, (3,5), while the log rotated
	// with record (3,5) appended and not yet read by the cursor: the floor
	// stays on segment 3, and no resume point is claimed.
	st := &replicaState{id: "rule", hasFloor: true, floor: 3, applied: wal.MakeLSN(3, 5)}
	at, head := wal.MakeLSN(3, 5), wal.MakeLSN(4, 0)
	if resume, demoted := p.src.assess(st, at, at, at, head); resume != 0 || demoted || st.floor != 3 {
		t.Fatalf("cursor behind the head: resume %s demoted %v floor %d, want none, false, 3", resume, demoted, st.floor)
	}
	// Had the rotation been record-free, the cursor stands at the head: the
	// replica is told so, and the floor waits for it to report the new position.
	if resume, demoted := p.src.assess(st, head, at, at, head); resume != head || demoted || st.floor != 3 {
		t.Fatalf("cursor at the head: resume %s demoted %v floor %d, want %s, false, 3", resume, demoted, st.floor, head)
	}

	r := startReplica(t, p.addr, "r1")
	waitCaughtUp(t, p, r)
	active := p.db.WAL().NextLSN().Segment()
	waitFor(t, 5*time.Second, "floor to reach the active segment", func() bool {
		low, ok := p.src.lowestNeeded()
		return ok && low == active
	})

	// The stream stalls with the next record in hand, then dies without
	// shipping it.
	fault.Enable(FPPartialSegment, fault.Once(), fault.Sleep(150*time.Millisecond), fault.ReturnErr(errors.New("injected stream death")))
	t.Cleanup(func() { fault.Disable(FPPartialSegment) })
	rid := mustInsert(t, p.db, tid, "unshipped")
	waitFor(t, 5*time.Second, "the stream to stall on the record", func() bool {
		return fault.FiredCount(FPPartialSegment) == 1
	})
	if _, err := p.db.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica to notice the dead stream", func() bool {
		return r.rep.reconnects.Load() >= 1
	})
	waitCaughtUp(t, p, r)
	if img, ok := readRow(r.db, tid, rid); !ok || img != "unshipped" {
		t.Fatalf("row behind the stall: %q ok=%v", img, ok)
	}
	select {
	case err := <-r.runErr:
		t.Fatalf("replica gave up with %v; it should have resumed from its applied LSN", err)
	default:
	}
}

// TestWaitLSNReleasedByAdvance: parked WaitLSN callers wake on the applier's
// advance, not on a poll — all of them on the one that reaches their target,
// none on one below it.
func TestWaitLSNReleasedByAdvance(t *testing.T) {
	rdb, err := core.Open(core.Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep, err := NewReplica(rdb, ReplicaConfig{Upstream: "unused:0"})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 16
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- rep.WaitLSN(100, 10*time.Second) }()
	}
	waitFor(t, 5*time.Second, "a waiter to park", func() bool {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		return rep.advanced != nil
	})
	rep.advance(99)
	select {
	case err := <-done:
		t.Fatalf("a waiter for LSN 100 returned (%v) at applied 99", err)
	case <-time.After(50 * time.Millisecond):
	}
	start := time.Now()
	rep.advance(100)
	for i := 0; i < waiters; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("releasing %d waiters took %v", waiters, d)
	}
	if err := rep.WaitLSN(200, 20*time.Millisecond); err == nil {
		t.Fatal("WaitLSN past the applied cursor did not time out")
	}
	rep.Stop()
	if err := rep.WaitLSN(200, 10*time.Second); err == nil {
		t.Fatal("WaitLSN on a stopped replica did not return")
	}
}
