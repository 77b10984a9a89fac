// Sharding walkthrough: the horizontally sharded engine in one process.
//
// Four acts:
//
//  1. Placement & the RID bijection — rows dealt to shards by interleaved
//     blocks, with the global RID sequence staying exactly as dense as a
//     single node's.
//  2. Pinned vs routed transactions — a single-shard transaction is one
//     engine's native commit; a cross-shard write set goes through the
//     minimal two-phase commit (prepare records in each participant's WAL,
//     one decision record on shard 0).
//  3. Crash recovery — the cluster reopens from its shard directories and
//     the cross-shard commit is there on every shard.
//  4. Per-shard GC horizons — a cursor pinned on shard 0 blocks reclamation
//     there and nowhere else.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/shard"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

const shards = 3

func main() {
	dir, err := os.MkdirTemp("", "hgc-sharding")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	open := func() *shard.Cluster {
		c, err := shard.Open(shard.Config{
			Shards: shards,
			Configure: func(int) core.Config {
				return core.Config{Persistence: &core.Persistence{Dir: dir, Sync: false}}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	c := open()

	// Act 1: placement. The default interleave deals RID blocks of size 1
	// round-robin, so sequential inserts produce the same dense global RIDs
	// a single node would — shard s simply owns every Nth row.
	tid, err := c.CreateTable("orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d shards under %s (one WAL directory each)\n", c.Shards(), filepath.Base(dir))
	var rids []ts.RID
	if err := c.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		for i := 0; i < 9; i++ {
			rid, err := tx.Insert(tid, []byte(fmt.Sprintf("order-%d", i)))
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	p := engine.Placement{Kind: engine.PlaceInterleave, Size: 1}
	fmt.Println("\nact 1 — the RID bijection (interleave, block size 1):")
	for _, rid := range rids {
		s, local := p.LocalRID(rid, shards)
		fmt.Printf("  global RID %d -> shard %d local RID %d\n", rid, s, local)
	}

	// Act 2: pinned vs routed. A transaction opened on one shard commits
	// through that engine's ordinary group-commit path; touching a foreign
	// row is an error, not a silent upgrade.
	fmt.Println("\nact 2 — pinned fast path vs routed 2PC:")
	pinned, err := c.BeginShard(p.ShardOf(rids[0], shards), txn.StmtSI, tid)
	if err != nil {
		log.Fatal(err)
	}
	if err := pinned.Update(tid, rids[0], []byte("order-0/local")); err != nil {
		log.Fatal(err)
	}
	if err := pinned.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  pinned txn on shard %d: single-node commit, no coordination\n", p.ShardOf(rids[0], shards))

	routed := c.Begin(txn.StmtSI)
	if err := routed.Update(tid, rids[1], []byte("order-1/2pc")); err != nil { // shard 1
		log.Fatal(err)
	}
	if err := routed.Update(tid, rids[2], []byte("order-2/2pc")); err != nil { // shard 2
		log.Fatal(err)
	}
	if err := routed.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  routed txn wrote shards %d and %d: prepares in both WALs, decision on shard 0\n",
		p.ShardOf(rids[1], shards), p.ShardOf(rids[2], shards))

	// Act 3: crash recovery. Close and reopen from the shard directories:
	// the cross-shard commit must be present on every participant (had the
	// crash landed before the decision record, recovery would have aborted
	// it on every participant instead — presumed abort).
	c.Close()
	c = open()
	defer c.Close()
	fmt.Println("\nact 3 — reopen from disk, both 2PC halves recovered:")
	check := c.Begin(txn.StmtSI)
	for _, rid := range rids[:3] {
		img, err := check.Get(tid, rid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  RID %d (shard %d) = %q\n", rid, p.ShardOf(rid, shards), img)
	}
	check.Abort()

	// Act 4: per-shard horizons. Pin a cursor on shard 0, churn versions on
	// every shard, run garbage collection: shard 0 must hold its versions
	// for the cursor while the other shards reclaim theirs.
	fmt.Println("\nact 4 — a cursor pinned on shard 0 blocks GC there and nowhere else:")
	cur, err := c.Shard(0).OpenCursor(tid)
	if err != nil {
		log.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for _, rid := range rids {
			err := c.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
				return tx.Update(tid, rid, []byte(fmt.Sprintf("churn-%d", round)))
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	for i := 0; i < shards; i++ {
		c.Shard(i).GC().RunGT()
		fmt.Printf("  shard %d: live versions=%d horizon=%d\n",
			i, c.Shard(i).Space().Live(), c.Shard(i).Manager().View().Horizon())
	}
	cur.Close()
	c.Shard(0).GC().RunGT()
	fmt.Printf("  cursor closed -> shard 0 reclaims: live versions=%d\n", c.Shard(0).Space().Live())
}
