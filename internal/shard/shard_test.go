package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// openTest opens an in-memory cluster and closes it with the test.
func openTest(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := Open(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustCreate(t *testing.T, c *Cluster, name string) ts.TableID {
	t.Helper()
	tid, err := c.CreateTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

// exec1 runs one routed transaction.
func exec1(t *testing.T, c *Cluster, fn func(tx engine.Tx) error) {
	t.Helper()
	if err := c.Exec(txn.StmtSI, nil, fn); err != nil {
		t.Fatal(err)
	}
}

func insert1(t *testing.T, c *Cluster, tid ts.TableID, img string) ts.RID {
	t.Helper()
	var rid ts.RID
	exec1(t, c, func(tx engine.Tx) error {
		var err error
		rid, err = tx.Insert(tid, []byte(img))
		return err
	})
	return rid
}

func get1(t *testing.T, c *Cluster, tid ts.TableID, rid ts.RID) (string, bool) {
	t.Helper()
	tx := c.Begin(txn.StmtSI)
	defer tx.Abort()
	img, err := tx.Get(tid, rid)
	if errors.Is(err, core.ErrRecordNotFound) {
		return "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(img), true
}

func TestPlacementBijection(t *testing.T) {
	for _, size := range []uint64{1, 3, 10, 64} {
		for _, shards := range []int{1, 2, 3, 4, 7} {
			p := engine.Placement{Kind: engine.PlaceInterleave, Size: size}
			seen := map[ts.RID]bool{}
			for g := ts.RID(1); g <= 500; g++ {
				s, l := p.LocalRID(g, shards)
				if s != p.ShardOf(g, shards) {
					t.Fatalf("size=%d shards=%d g=%d: LocalRID shard %d != ShardOf %d",
						size, shards, g, s, p.ShardOf(g, shards))
				}
				if back := p.GlobalRID(s, shards, l); back != g {
					t.Fatalf("size=%d shards=%d: round trip %d -> (%d,%d) -> %d",
						size, shards, g, s, l, back)
				}
				if seen[g] {
					t.Fatalf("size=%d shards=%d: global RID %d produced twice", size, shards, g)
				}
				seen[g] = true
			}
			// A sequential unhinted load (counter c) must produce the dense
			// global sequence 1,2,3,... exactly like a single node.
			locals := make([]uint64, shards)
			for c := uint64(0); c < 200; c++ {
				s := int((c / size) % uint64(shards))
				locals[s]++
				g := p.GlobalRID(s, shards, ts.RID(locals[s]))
				if uint64(g) != c+1 {
					t.Fatalf("size=%d shards=%d: sequential load op %d assigned global %d", size, shards, c, g)
				}
			}
		}
	}
	// Replicated placements pass RIDs through verbatim.
	r := engine.Placement{Kind: engine.PlaceReplicated}
	if g := r.GlobalRID(3, 4, 9); g != 9 {
		t.Fatalf("replicated GlobalRID = %d", g)
	}
	if s, l := r.LocalRID(17, 4); s != 0 || l != 17 {
		t.Fatalf("replicated LocalRID = (%d,%d)", s, l)
	}
}

func TestClusterDenseRIDsAndScan(t *testing.T) {
	c := openTest(t, 3)
	tid := mustCreate(t, c, "T")
	for i := 1; i <= 10; i++ {
		if rid := insert1(t, c, tid, fmt.Sprintf("v%d", i)); rid != ts.RID(i) {
			t.Fatalf("sequential insert %d got RID %d", i, rid)
		}
	}
	for i := 1; i <= 10; i++ {
		if img, ok := get1(t, c, tid, ts.RID(i)); !ok || img != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q,%v", i, img, ok)
		}
	}
	// Scan must visit all ten and report global RIDs consistent with Get.
	tx := c.Begin(txn.TransSI)
	defer tx.Abort()
	seen := map[ts.RID]string{}
	if err := tx.Scan(tid, func(rid ts.RID, img []byte) bool {
		seen[rid] = string(img)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("scan saw %d records, want 10", len(seen))
	}
	for i := 1; i <= 10; i++ {
		if seen[ts.RID(i)] != fmt.Sprintf("v%d", i) {
			t.Fatalf("scan rid %d = %q", i, seen[ts.RID(i)])
		}
	}
}

func TestPlacementRouting(t *testing.T) {
	c := openTest(t, 4)

	// Replicated: one insert writes every shard; updates touch every copy.
	repl := mustCreate(t, c, "REPL")
	if err := c.SetPlacement(repl, engine.Placement{Kind: engine.PlaceReplicated}); err != nil {
		t.Fatal(err)
	}
	rrid := insert1(t, c, repl, "r1")
	for i := 0; i < 4; i++ {
		if n := c.Shard(i).ScanCountAt(repl, c.Shard(i).Manager().CurrentTS()); n != 1 {
			t.Fatalf("replicated row missing on shard %d (rows=%d)", i, n)
		}
	}
	exec1(t, c, func(tx engine.Tx) error { return tx.Update(repl, rrid, []byte("r2")) })
	for i := 0; i < 4; i++ {
		if img, ok := c.Shard(i).ReadAt(repl, rrid, c.Shard(i).Manager().CurrentTS()); !ok || string(img) != "r2" {
			t.Fatalf("replicated update missing on shard %d: %q,%v", i, img, ok)
		}
	}

	// InsertAt hint pins the record's shard for interleaved tables.
	hinted := mustCreate(t, c, "HINTED")
	exec1(t, c, func(tx engine.Tx) error {
		_, err := tx.InsertAt(hinted, []byte("h"), 3)
		return err
	})
	if n := c.Shard(3).ScanCountAt(hinted, c.Shard(3).Manager().CurrentTS()); n != 1 {
		t.Fatalf("hinted insert not on shard 3 (rows=%d)", n)
	}

	// Changing a placement after rows exist is rejected; reinstalling the
	// same one is not (the reopen path depends on it).
	if err := c.SetPlacement(repl, engine.Placement{Kind: engine.PlaceInterleave, Size: 4}); !errors.Is(err, ErrPlacementLate) {
		t.Fatalf("late placement change: %v, want ErrPlacementLate", err)
	}
	if err := c.SetPlacement(repl, engine.Placement{Kind: engine.PlaceReplicated}); err != nil {
		t.Fatalf("identical placement reinstall: %v", err)
	}
}

func TestPinnedShardTx(t *testing.T) {
	c := openTest(t, 2)
	tid := mustCreate(t, c, "T")
	// Global RIDs 1..4 alternate shards 0,1,0,1.
	for i := 1; i <= 4; i++ {
		insert1(t, c, tid, fmt.Sprintf("v%d", i))
	}
	tx, err := c.BeginShard(0, txn.StmtSI)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if _, err := tx.Get(tid, 1); err != nil {
		t.Fatalf("pinned Get of own shard: %v", err)
	}
	if _, err := tx.Get(tid, 2); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("pinned Get of other shard: %v, want ErrCrossShard", err)
	}
	if err := tx.Update(tid, 2, []byte("x")); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("pinned Update of other shard: %v, want ErrCrossShard", err)
	}
	if err := tx.Scan(tid, func(ts.RID, []byte) bool { return true }); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("pinned Scan of interleaved table: %v, want ErrCrossShard", err)
	}
	if _, err := c.BeginShard(2, txn.StmtSI); !errors.Is(err, ErrShardRange) {
		t.Fatalf("BeginShard(2) on 2 shards: %v, want ErrShardRange", err)
	}
	// Pinned writes commit through the fast path.
	tx2, _ := c.BeginShard(1, txn.StmtSI)
	if err := tx2.Update(tid, 2, []byte("w2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if img, ok := get1(t, c, tid, 2); !ok || img != "w2" {
		t.Fatalf("pinned commit not visible: %q,%v", img, ok)
	}
}

func TestCrossShardCommitAndAbort(t *testing.T) {
	c := openTest(t, 2)
	tid := mustCreate(t, c, "T")
	r1 := insert1(t, c, tid, "a0") // shard 0
	r2 := insert1(t, c, tid, "b0") // shard 1

	// A routed transaction writing both shards commits atomically via 2PC.
	tx := c.Begin(txn.StmtSI)
	if err := tx.Update(tid, r1, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tid, r2, []byte("b1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if img, _ := get1(t, c, tid, r1); img != "a1" {
		t.Fatalf("shard-0 write = %q", img)
	}
	if img, _ := get1(t, c, tid, r2); img != "b1" {
		t.Fatalf("shard-1 write = %q", img)
	}

	// Abort rolls back every participant.
	tx = c.Begin(txn.StmtSI)
	if err := tx.Update(tid, r1, []byte("a2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tid, r2, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if img, _ := get1(t, c, tid, r1); img != "a1" {
		t.Fatalf("aborted shard-0 write leaked: %q", img)
	}
	if img, _ := get1(t, c, tid, r2); img != "b1" {
		t.Fatalf("aborted shard-1 write leaked: %q", img)
	}

	// No shard fail-stopped and no in-doubt state lingers.
	for i := 0; i < 2; i++ {
		if failed, cause := c.Shard(i).FailStop(); failed {
			t.Fatalf("shard %d fail-stopped: %v", i, cause)
		}
	}
}

// TestCursorGCIndependence is the acceptance property: a pinned snapshot
// cursor sitting on one shard must not block version reclamation on another.
func TestCursorGCIndependence(t *testing.T) {
	c := openTest(t, 2)
	tid := mustCreate(t, c, "T")
	// 8 rows alternating shards: odd global RIDs on shard 0, even on shard 1.
	var rids []ts.RID
	for i := 0; i < 8; i++ {
		rids = append(rids, insert1(t, c, tid, "v0"))
	}

	cur, err := c.OpenCursor(tid)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// Fetch one row: the cursor now sits inside shard 0, pinning only shard
	// 0's snapshot. Shard 1 has no cursor yet.
	if rows, _, err := cur.Fetch(1); err != nil || len(rows) != 1 {
		t.Fatalf("fetch = %d rows, err %v", len(rows), err)
	}

	for round := 1; round <= 5; round++ {
		for _, rid := range rids {
			exec1(t, c, func(tx engine.Tx) error {
				return tx.Update(tid, rid, []byte(fmt.Sprintf("v%d", round)))
			})
		}
	}
	time.Sleep(2 * time.Millisecond) // let the shard-1 snapshot ages pass zero
	c.Shard(0).GC().RunGT()
	c.Shard(1).GC().RunGT()

	live0 := c.Shard(0).Space().Live()
	live1 := c.Shard(1).Space().Live()
	// Shard 0 must keep history for the pinned cursor (4 rows x 5 updates of
	// garbage held back); shard 1 must have collapsed to one version per row.
	if live0 < 20 {
		t.Fatalf("shard 0 reclaimed under a pinned cursor: live=%d", live0)
	}
	if live1 > 4 {
		t.Fatalf("pinned cursor on shard 0 blocked shard 1: live=%d", live1)
	}

	// Draining the cursor past shard 0 releases its snapshot too.
	for !cur.Exhausted() {
		if _, _, err := cur.Fetch(100); err != nil {
			t.Fatal(err)
		}
	}
	c.Shard(0).GC().RunGT()
	if live := c.Shard(0).Space().Live(); live > 4 {
		t.Fatalf("shard 0 still blocked after cursor drained past it: live=%d", live)
	}
}

// TestClusterRecovery2PC proves in-doubt settlement end to end with real
// persistence: a cluster is closed mid-protocol by fail-stop injection in the
// crash matrix; here we prove the clean-shutdown/reopen path keeps committed
// cross-shard transactions and the XID counter.
func TestClusterRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 2,
		Configure: func(int) core.Config {
			return core.Config{Persistence: &core.Persistence{Dir: dir, Sync: false}}
		},
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tid := mustCreate(t, c, "T")
	r1 := insert1(t, c, tid, "a0")
	r2 := insert1(t, c, tid, "b0")
	tx := c.Begin(txn.StmtSI)
	if err := tx.Update(tid, r1, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tid, r2, []byte("b1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	xidBefore := c.xid.Load()
	c.Close()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.TableID("T"); got != tid {
		t.Fatalf("recovered table id %d, want %d", got, tid)
	}
	if img, ok := get1(t, c2, tid, r1); !ok || img != "a1" {
		t.Fatalf("recovered shard-0 half = %q,%v", img, ok)
	}
	if img, ok := get1(t, c2, tid, r2); !ok || img != "b1" {
		t.Fatalf("recovered shard-1 half = %q,%v", img, ok)
	}
	if c2.xid.Load() < xidBefore {
		t.Fatalf("XID counter regressed: %d < %d", c2.xid.Load(), xidBefore)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := openTest(t, 3)
	tid := mustCreate(t, c, "T")
	for i := 0; i < 9; i++ {
		insert1(t, c, tid, "v")
	}
	st := c.Stats()
	var sum int64
	for i := 0; i < 3; i++ {
		ss := c.Shard(i).Stats()
		sum += ss.VersionsLive
		if ss.CurrentCID > st.CurrentCID {
			t.Fatalf("aggregate CurrentCID %d below shard %d's %d", st.CurrentCID, i, ss.CurrentCID)
		}
		if ss.GlobalHorizon < st.GlobalHorizon {
			t.Fatalf("aggregate horizon %d above shard %d's %d", st.GlobalHorizon, i, ss.GlobalHorizon)
		}
	}
	if st.VersionsLive != sum {
		t.Fatalf("aggregate live %d != shard sum %d", st.VersionsLive, sum)
	}
}
