package shard

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hybridgc/internal/txn"
)

// BenchmarkShardedCommit measures single-shard commit throughput as the shard
// count grows: every transaction is pinned to one shard (the fast path — no
// two-phase commit) and inserts one record with that shard as the placement
// hint, so shards never contend with each other. The shards=1 row is the
// single-node baseline to read shards=4 against.
func BenchmarkShardedCommit(b *testing.B) {
	img := []byte("0123456789abcdef0123456789abcdef")
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c, err := Open(Config{Shards: n})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			tid, err := c.CreateTable("T")
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(next.Add(1)-1) % n
				for pb.Next() {
					tx, err := c.BeginShard(w, txn.StmtSI, tid)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := tx.InsertAt(tid, img, w); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
