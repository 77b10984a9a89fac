package repl

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"hybridgc/internal/ts"
)

// BenchmarkStreamTail is the replication stream end to end, primary and
// replica over loopback: a fresh replica's catch-up over a 50 k-record log
// (records/s, bootstrap included), then the live tail — the time from a
// commit's acknowledgement on the primary to its record being applied on the
// replica, one commit in flight at a time (p50 of 3 000, in µs).
func BenchmarkStreamTail(b *testing.B) {
	const backlog, commits = 50000, 3000
	p := startPrimary(b, SourceConfig{}, nil)
	tid := mustCreateTable(b, p.db, "accounts")
	var rid ts.RID
	for i := 0; i < backlog; i++ {
		rid = mustInsert(b, p.db, tid, "a row image of some forty bytes, or so..")
	}
	var catchUp time.Duration
	var lat []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Polled, not WaitLSN: a parked waiter's wake-ups (one per applied
		// run) are the replica's cost to measure, not the stream's.
		start, target := time.Now(), p.db.WAL().NextLSN()
		r := startReplica(b, p.addr, fmt.Sprintf("r%d", i))
		for r.rep.AppliedLSN() < target {
			time.Sleep(100 * time.Microsecond)
		}
		catchUp += time.Since(start)
		for j := 0; j < commits; j++ {
			mustUpdate(b, p.db, tid, rid, "tail")
			acked, target := time.Now(), p.db.WAL().NextLSN()
			for r.rep.AppliedLSN() < target {
				runtime.Gosched()
			}
			lat = append(lat, time.Since(acked))
		}
		r.shutdown()
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(backlog*b.N)/catchUp.Seconds(), "records/s")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-commit→applied-µs")
}
