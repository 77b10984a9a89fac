package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/htap"
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

// startOLAP creates the fact table, arms its column lane, and spawns one
// feeder plus n analysts on wg until stop closes. The server must run the
// migrator (-htap) or EnableHTAP fails here with its error.
func startOLAP(cl *client.Client, n, warehouses int, stop <-chan struct{}, wg *sync.WaitGroup) (*olapLoad, error) {
	if _, err := cl.Exec("CREATE TABLE " + olapTable + " (amount INT, warehouse TEXT)"); err != nil {
		return nil, fmt.Errorf("olap table: %w", err)
	}
	if err := cl.EnableHTAP(olapTable); err != nil {
		return nil, fmt.Errorf("enable htap (is the server running -htap?): %w", err)
	}
	ol := &olapLoad{}

	// Feeder: steady inserts give the migrator a moving delta tail to chase.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf("INSERT INTO %s VALUES (%d, 'W%d')", olapTable, 1+i%97, 1+i%warehouses)
			if _, err := cl.Exec(q); err == nil {
				ol.inserts.Add(1)
			} else if !core.IsTransient(err) {
				return
			}
			i++
		}
	}()

	for a := 0; a < n; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var (
					res *client.Result
					err error
				)
				if i%2 == 0 {
					res, err = cl.Aggregate(olapTable, client.AggSum, "amount", "")
				} else {
					res, err = cl.Aggregate(olapTable, client.AggCount, "", "warehouse")
				}
				if err != nil {
					if core.IsTransient(err) {
						continue
					}
					return
				}
				ol.queries.Add(1)
				ol.rowsRead.Add(int64(len(res.Rows)))
			}
		}(a)
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
