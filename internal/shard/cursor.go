package shard

import (
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
)

// clusterCursor iterates a table shard-major with lazy per-shard cursors:
// shard k's cursor (and the snapshot it pins) opens only when iteration
// reaches shard k and closes as soon as it is drained. A long-lived cluster
// cursor therefore pins garbage collection on at most one shard at a time —
// the sharded answer to the paper's mixed-workload blocker: an OLAP scan
// dragging through shard 2 leaves shards 0, 1 and 3 free to reclaim.
//
// The price is that the view is not one cluster-wide snapshot: each shard is
// read at the snapshot current when iteration enters it.
type clusterCursor struct {
	c     *Cluster
	tid   ts.TableID
	order []int // shard visit order by placement
	idx   int
	cur   *core.Cursor
	snap  ts.CID // current (or last) shard cursor's snapshot
	done  bool
}

// OpenCursor opens a cluster-wide cursor over the table. Replicated tables
// read one copy (shard 0); interleaved tables visit every shard in order.
func (c *Cluster) OpenCursor(tid ts.TableID) (engine.Cursor, error) {
	tp := c.placement(tid)
	order := []int{0}
	if tp.p.Kind != engine.PlaceReplicated {
		order = make([]int, len(c.shards))
		for i := range order {
			order[i] = i
		}
	}
	cc := &clusterCursor{c: c, tid: tid, order: order}
	// Open the first shard eagerly so a bad table errors here and SnapshotTS
	// is meaningful before the first Fetch.
	cur, err := c.shards[order[0]].OpenCursor(tid)
	if err != nil {
		return nil, err
	}
	cc.cur, cc.snap = cur, cur.SnapshotTS()
	cc.idx = 1
	return cc, nil
}

// Fetch returns up to n record images. A call drains from one shard at a
// time; an empty, non-exhausted return never happens (the cursor advances to
// the next shard internally).
func (cc *clusterCursor) Fetch(n int) ([][]byte, core.FetchStats, error) {
	for {
		if cc.cur == nil {
			if cc.done || cc.idx >= len(cc.order) {
				cc.done = true
				return nil, core.FetchStats{}, nil
			}
			cur, err := cc.c.shards[cc.order[cc.idx]].OpenCursor(cc.tid)
			if err != nil {
				return nil, core.FetchStats{}, err
			}
			cc.cur, cc.snap = cur, cur.SnapshotTS()
			cc.idx++
		}
		rows, st, err := cc.cur.Fetch(n)
		if err != nil {
			return nil, st, err
		}
		if cc.cur.Exhausted() {
			// Release this shard's snapshot before touching the next shard —
			// the property the per-shard GC independence test pins down.
			cc.cur.Close()
			cc.cur = nil
			if cc.idx >= len(cc.order) {
				cc.done = true
			}
		}
		if len(rows) > 0 || cc.done {
			return rows, st, nil
		}
	}
}

func (cc *clusterCursor) SnapshotTS() ts.CID { return cc.snap }

func (cc *clusterCursor) Exhausted() bool { return cc.done }

func (cc *clusterCursor) Close() {
	if cc.cur != nil {
		cc.cur.Close()
		cc.cur = nil
	}
	cc.done = true
}
