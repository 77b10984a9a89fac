package server

import (
	"sync"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/shard"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/wire"
)

// TestShardedStatsIsOneInstant: on a sharded server the aggregate of a STATS
// payload is merged from the very per-shard readings shipped beside it, so
// within one payload the rows add up to the totals exactly — while TPC-C
// commits and the collectors reclaim underneath, where two separate readings
// would drift apart.
func TestShardedStatsIsOneInstant(t *testing.T) {
	const shards = 4
	eng, err := shard.Open(shard.Config{Shards: shards, Configure: func(int) core.Config {
		// A small hash table: every Stats() walks all of it under the bucket
		// locks, 800 times here — half a minute at the default size under -race.
		return core.Config{HashBuckets: 256,
			GC: gc.Periods{GT: 2 * time.Millisecond, TG: 5 * time.Millisecond, SI: 10 * time.Millisecond}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := NewEngine(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	driver, err := tpcc.NewWithBackend(tpcc.EngineBackend(eng), tpcc.Config{
		Warehouses: shards, Districts: 2, CustomersPerDistrict: 5, Items: 20, CrossWarehouse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Load(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		eng.Shard(i).GC().Start()
		defer eng.Shard(i).GC().Stop()
		wg.Add(1)
		go func(wk *tpcc.Worker) {
			defer wg.Done()
			_ = wk.Run(1<<62, stop)
		}(driver.NewWorker(i + 1))
	}
	defer wg.Wait()
	defer close(stop)

	var first, last int64
	for n := 0; n < 200; n++ {
		// The payload as a peer would hold it: assembled, encoded, decoded.
		// (No socket: with the workers never parking, 200 round trips are
		// 200 scheduler hand-offs, which under -race is most of a minute.)
		var w wire.Builder
		assembled := srv.Stats()
		assembled.Encode(&w)
		r := wire.NewParser(w.Take())
		st := wire.DecodeStats(r)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if len(st.Shards) != shards {
			t.Fatalf("payload %d carries %d shard rows, want %d", n, len(st.Shards), shards)
		}
		var reclaimed, committed int64
		horizon := st.Shards[0].GlobalHorizon
		for _, sh := range st.Shards {
			reclaimed += sh.VersionsReclaimed
			committed += sh.Txn.TxnsCommitted
			horizon = min(horizon, sh.GlobalHorizon)
		}
		if reclaimed != st.VersionsReclaimed || committed != st.Txn.TxnsCommitted || horizon != st.GlobalHorizon {
			t.Fatalf("payload %d: rows give reclaimed=%d committed=%d horizon=%d, totals say %d %d %d",
				n, reclaimed, committed, horizon, st.VersionsReclaimed, st.Txn.TxnsCommitted, st.GlobalHorizon)
		}
		if n == 0 {
			first = committed
		}
		last = committed
	}
	if last == first {
		t.Fatalf("nothing committed across 200 payloads (%d): the check ran against a still engine", last)
	}
}
