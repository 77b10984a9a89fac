package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
)

// rpTable is the SQL table the read-replica analysts work over: a feeder
// appends acked rows through the pool's primary while the analysts read them
// back off the replicas — Session reads re-check read-your-writes on every
// acked row, BoundedStaleness reads play the dashboard that tolerates lag.
const rpTable = "rp_ledger"

type readLoad struct {
	pool *client.ReadPool

	sessionReads atomic.Int64
	boundedReads atomic.Int64
	rywViolation atomic.Int64
	inserts      atomic.Int64
}

// startReadPool builds a read/write-splitting pool over the primary and the
// replica set and spawns one feeder plus n analysts on wg until stop closes.
func startReadPool(primary, token, replicaList string, n int, stop <-chan struct{}, wg *sync.WaitGroup) (*readLoad, error) {
	var replicas []string
	for _, a := range strings.Split(replicaList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			replicas = append(replicas, a)
		}
	}
	pool, err := client.NewReadPool(client.PoolConfig{
		Primary:  primary,
		Replicas: replicas,
		Client:   client.Config{Token: token, MaxConns: n + 2},
	})
	if err != nil {
		return nil, err
	}
	if _, err := pool.Exec("CREATE TABLE " + rpTable + " (id INT, v INT)"); err != nil {
		pool.Close()
		return nil, fmt.Errorf("readpool table: %w", err)
	}
	rl := &readLoad{pool: pool}

	// Feeder: acked writes through the primary; acked is the highest id whose
	// INSERT returned success, so a Session read of it must always hit.
	var acked atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", rpTable, i, i*7)
			if _, err := pool.Exec(q); err == nil {
				rl.inserts.Add(1)
				acked.Store(i)
			} else if !core.IsTransient(err) {
				return
			}
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
				if id := acked.Load(); i%2 == 0 && id > 0 {
					// Read-your-writes: the latest acked row must be visible
					// to a Session read no matter which endpoint serves it.
					q := fmt.Sprintf("SELECT v FROM %s WHERE id = %d", rpTable, id)
					res, err := rl.pool.Read(q, client.Session)
					if err != nil {
						if core.IsTransient(err) {
							continue
						}
						return
					}
					rl.sessionReads.Add(1)
					if len(res.Rows) != 1 || res.Rows[0][0].I != id*7 {
						rl.rywViolation.Add(1)
					}
				} else {
					// Dashboard read: up to 500ms stale is fine.
					q := fmt.Sprintf("SELECT id FROM %s WHERE id = %d", rpTable, 1+int64(i)%max(id, 1))
					if _, err := rl.pool.Read(q, client.BoundedStaleness(500*time.Millisecond)); err != nil {
						// Table-not-found is a startup race: a bounded read
						// carries no token, so it may land on a replica that
						// has not applied the CREATE TABLE yet.
						if core.IsTransient(err) || errors.Is(err, core.ErrTableNotFound) {
							continue
						}
						return
					}
					rl.boundedReads.Add(1)
				}
			}
		}(a)
	}
	return rl, nil
}

// report prints the read-routing breakdown.
func (rl *readLoad) report(w io.Writer, elapsed time.Duration) {
	c := rl.pool.Counters()
	reads := rl.sessionReads.Load() + rl.boundedReads.Load()
	fmt.Fprintf(w, "readpool: %.0f reads/s (%d session + %d bounded over %d rows) replica=%d primary=%d bounces=%d failovers=%d\n",
		float64(reads)/elapsed.Seconds(), rl.sessionReads.Load(), rl.boundedReads.Load(),
		rl.inserts.Load(), c.ReplicaReads, c.PrimaryReads, c.Bounces, c.Failovers)
	fmt.Fprintf(w, "readpool: ryw-violations=%d token=%d\n", rl.rywViolation.Load(), rl.pool.Token())
}
