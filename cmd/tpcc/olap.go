package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/htap"
	"hybridgc/internal/workload"
)

// olapTable is the SQL fact table the OLAP leg aggregates over. One feeder
// keeps appending (and occasionally re-pricing) order lines while the
// analysts run SUM/COUNT/GROUP BY against them — the mixed OLTP/OLAP shape
// of the HTAP experiments, driven over the wire.
const olapTable = "olap_orders"

type olapLoad struct {
	queries  atomic.Int64
	inserts  atomic.Int64
	rowsRead atomic.Int64
}

// startOLAP creates the fact table, arms its column lane, and runs one
// feeder plus n analysts on g. The server must run the migrator (-htap) or
// EnableHTAP fails here with its error.
func startOLAP(g *workload.Group, cl *client.Client, n, warehouses int) (*olapLoad, error) {
	if _, err := cl.Exec("CREATE TABLE " + olapTable + " (amount INT, warehouse TEXT)"); err != nil {
		return nil, fmt.Errorf("olap table: %w", err)
	}
	if err := cl.EnableHTAP(olapTable); err != nil {
		return nil, fmt.Errorf("enable htap (is the server running -htap?): %w", err)
	}
	ol := &olapLoad{}

	// Feeder: steady inserts give the migrator a moving delta tail to chase.
	i := 0
	g.Loop(func() error {
		q := fmt.Sprintf("INSERT INTO %s VALUES (%d, 'W%d')", olapTable, 1+i%97, 1+i%warehouses)
		i++
		if _, err := cl.Exec(q); err != nil {
			return err
		}
		ol.inserts.Add(1)
		return nil
	})
	for a := 0; a < n; a++ {
		sum := true
		g.Loop(func() error {
			var (
				res *client.Result
				err error
			)
			if sum {
				res, err = cl.Aggregate(olapTable, client.AggSum, "amount", "")
			} else {
				res, err = cl.Aggregate(olapTable, client.AggCount, "", "warehouse")
			}
			sum = !sum
			if err != nil {
				return err
			}
			ol.queries.Add(1)
			ol.rowsRead.Add(int64(len(res.Rows)))
			return nil
		})
	}
	return ol, nil
}

// report prints the OLAP leg's throughput and the server's lane state.
func (ol *olapLoad) report(w io.Writer, lanes []htap.TableStats, elapsed time.Duration) {
	q := ol.queries.Load()
	fmt.Fprintf(w, "olap: %.0f aggregates/s (%d queries, %d fact rows inserted)\n",
		float64(q)/elapsed.Seconds(), q, ol.inserts.Load())
	for _, h := range lanes {
		fmt.Fprintf(w, "olap: lane %s chunks=%d chunk-rows=%d delta=%d dirty=%d migrated=%d lag=%d\n",
			h.Name, h.Chunks, h.ChunkRows, h.DeltaRows, h.DirtyRows, h.MigratedRows, h.Lag)
	}
}
