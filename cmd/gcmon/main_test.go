package main

import (
	"strings"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/htap"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wire"
)

// The golden strings were printed by the parent commit's gcmon (which had
// one row printer per mode; both gave these bytes) from the same values, so
// they pin the per-tick output: the Figure 2 row with the pressure column,
// shard rows, the column-lane line and both replication roles. In-process
// and remote ticks are one function of one wire.Stats, so one golden covers
// both modes. The primary's per-replica rows have since lost their pin=
// column, with the replica's horizon pin; nothing else in them moved.
func TestTickGolden(t *testing.T) {
	shard := func(live, reclaimed int64, snaps int, committed int64, cid, horizon ts.CID, failed bool) core.Stats {
		return core.Stats{VersionsLive: live, VersionsReclaimed: reclaimed, ActiveSnapshots: snaps,
			Txn: txn.Stats{TxnsCommitted: committed}, CurrentCID: cid, GlobalHorizon: horizon, FailStop: failed}
	}
	primary := wire.Stats{
		Stats: core.Stats{
			VersionsLive: 12345, ActiveCIDRange: 678, VersionsLiveBytes: 3<<20 + 512<<10, VersionsReclaimed: 99001,
			Pressure: core.PressureStats{Enabled: true, Level: core.PressureBackpressure,
				Live: 15000, Hard: 20000, Utilization: 0.75, Rejected: 3, Evicted: 1},
		},
		Shards: []core.Stats{
			shard(100, 7, 2, 40, 60, 50, false),
			shard(12245, 98994, 1, 39, 61, 41, true),
		},
		HTAP: []htap.TableStats{{Name: "olap_orders", Table: 9, LaneStats: htap.LaneStats{Chunks: 3, ChunkRows: 3000,
			DeltaRows: 12, DirtyRows: 4, MigratedRows: 3100, Watermark: 58, Lag: 2, Passes: 17}}},
		ReplRole: "primary", ReplPrimaryLSN: 2<<32 | 77, ReplRecordsSent: 4242, ReplDemotions: 1,
		Replicas: []wire.ReplicaStat{
			{ID: "r1", Connected: true, AppliedLSN: 2<<32 | 70, LastReportAge: 12345 * time.Microsecond},
			{ID: "r2", Demoted: true, AppliedLSN: 1<<32 | 3, SegmentLag: 1, LastReportAge: 3 * time.Second},
			{ID: "r3", AppliedLSN: 2<<32 | 1, LastReportAge: 250 * time.Millisecond},
		},
	}
	replica := wire.Stats{
		Stats:    core.Stats{VersionsLive: 7, VersionsLiveBytes: 900},
		ReplRole: "replica", ReplUpstream: "127.0.0.1:7811", ReplAppliedLSN: 2<<32 | 70, ReplPrimaryLSN: 2<<32 | 77,
		ReplRecordsApplied: 4100, ReplReconnects: 2, ReadGateWaits: 5, ReadGateBounces: 1,
	}
	for _, c := range []struct {
		name string
		st   wire.Stats
		want string
	}{
		{"primary", primary, `1.5s     12345            678                    3.50MiB        99001      backpressure 75% (rej=3 evict=1)
  shard 0  live=100        horizon=50         cid=60         reclaimed=7          snaps=2    committed=40
  shard 1  live=12245      horizon=41         cid=61         reclaimed=98994      snaps=1    committed=39 FAILSTOP
  htap: olap_orders  chunks=3    rows=3000       delta=12       dirty=4        migrated=3100       wm=58         lag=2
  repl: primary head=2/77 sent=4242 demotions=1
  repl:   r1           connected applied=2/70         lag=0seg age=12ms
  repl:   r2           DEMOTED   applied=1/3          lag=1seg age=3s
  repl:   r3           away      applied=2/1          lag=0seg age=250ms
`},
		{"replica", replica, `1.5s     7                0                      900B           0          -
  repl: replica of 127.0.0.1:7811 applied=2/70 head=2/77 applied-records=4100 reconnects=2
  repl:   read-gate waits=5 bounces=1 lag=7
`},
	} {
		var b strings.Builder
		printTick(&b, 1500*time.Millisecond, c.st)
		if got := b.String(); got != c.want {
			t.Errorf("%s tick:\n got:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}

	// The closing summary is one format for both modes.
	var b strings.Builder
	printFinal(&b, func() (wire.Stats, error) { return replica, nil })
	const final = "\nfinal: versions=7 reclaimed=0 migrated=0 collision=0.00 cursors open=0 failstop=false\n" +
		"  repl: replica of 127.0.0.1:7811 applied=2/70 head=2/77 applied-records=4100 reconnects=2\n" +
		"  repl:   read-gate waits=5 bounces=1 lag=7\n"
	if got := b.String(); got != final {
		t.Errorf("final:\n got:\n%s\nwant:\n%s", got, final)
	}
}
