package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/htap"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/workload"
)

// The OLAP leg aggregates over TPC-C's own tables while the workers write
// them: the mixed OLTP/OLAP shape of the HTAP experiments, driven over the
// wire. Both of its queries are lane-eligible: one aggregate, a GROUP BY and
// no WHERE.
type olapLoad struct {
	queries  atomic.Int64
	rowsRead atomic.Int64
}

// startOLAP arms the column lanes of ORDERLINE and STOCK and runs n analysts
// on g, each alternating SUM(OL_AMOUNT) GROUP BY OL_NUMBER and
// MIN(S_QUANTITY) GROUP BY S_W_ID. The server must run the migrator (-htap)
// or EnableHTAP fails here with its error.
func startOLAP(g *workload.Group, cl *client.Client, n int) (*olapLoad, error) {
	for _, table := range []string{tpcc.TableOrderLine, tpcc.TableStock} {
		if err := cl.EnableHTAP(table); err != nil {
			return nil, fmt.Errorf("enable htap on %s (is the server running -htap?): %w", table, err)
		}
	}
	ol := &olapLoad{}
	for a := 0; a < n; a++ {
		sum := true
		g.Loop(func() error {
			var (
				res *client.Result
				err error
			)
			if sum {
				res, err = cl.Aggregate(tpcc.TableOrderLine, client.AggSum, "ol_amount", "ol_number")
			} else {
				res, err = cl.Aggregate(tpcc.TableStock, client.AggMin, "s_quantity", "s_w_id")
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
	fmt.Fprintf(w, "olap: %.0f aggregates/s (%d queries)\n", float64(q)/elapsed.Seconds(), q)
	for _, h := range lanes {
		fmt.Fprintf(w, "olap: lane %s chunks=%d chunk-rows=%d delta=%d dirty=%d migrated=%d lag=%d\n",
			h.Name, h.Chunks, h.ChunkRows, h.DeltaRows, h.DirtyRows, h.MigratedRows, h.Lag)
	}
}
