package workload

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
)

// rpTable is the SQL table the read-pool load works over.
const rpTable = "rp_ledger"

// feedEvery spaces the feeder's inserts: enough to keep consistency tokens
// moving, so no read replays a frozen snapshot, without the feeder taking the
// cores the readers are measured on.
const feedEvery = 2 * time.Millisecond

// ReadPool counts what the read scale-out load did.
type ReadPool struct {
	// Reads are Session reads that returned; Violations those that did not
	// see the row the feeder had last acked (read-your-writes broken).
	Reads, Violations, Inserts atomic.Int64
}

// StartReadPool is the read scale-out load, run on g: a feeder appends rows
// through the pool's primary, and n analysts read the last acked row back
// with Session reads wherever the pool routes them, each checking that it
// sees the row. The table and its first row are written before any goroutine
// starts.
func StartReadPool(g *Group, pool *client.ReadPool, n int) (*ReadPool, error) {
	if _, err := pool.Exec("CREATE TABLE " + rpTable + " (id INT, v INT)"); err != nil {
		return nil, fmt.Errorf("readpool table: %w", err)
	}
	rp := &ReadPool{}
	var acked atomic.Int64
	insert := func(id int64) error {
		if _, err := pool.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", rpTable, id, id*7)); err != nil {
			return err
		}
		rp.Inserts.Add(1)
		acked.Store(id)
		return nil
	}
	if err := insert(1); err != nil {
		return nil, err
	}
	next := int64(2)
	g.Loop(func() error {
		if err := insert(next); err != nil {
			return err
		}
		next++
		g.pause(feedEvery)
		return nil
	})
	for a := 0; a < n; a++ {
		g.Loop(func() error {
			id := acked.Load()
			res, err := pool.Read(fmt.Sprintf("SELECT v FROM %s WHERE id = %d", rpTable, id), client.Session)
			if err != nil {
				return err
			}
			rp.Reads.Add(1)
			if len(res.Rows) != 1 || res.Rows[0][0].I != id*7 {
				rp.Violations.Add(1)
			}
			return nil
		})
	}
	return rp, nil
}
