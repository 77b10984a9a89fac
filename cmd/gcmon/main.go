// Command gcmon reproduces the HANA system-load view of Figure 2 as a
// terminal ticker: it runs the mixed OLTP/OLAP workload and prints the
// figure's indicators once per interval — Active Versions, the Active
// Commit ID Range (current CID minus the oldest active snapshot timestamp),
// and the estimated version-space memory — so the version-space overflow
// phenomenon, and its disappearance under HybridGC, can be watched live.
//
// With -addr it monitors a running hybridgcd instead: each tick is one STATS
// round trip, so the same indicator columns describe a remote engine — for
// example one being driven by `tpcc -addr` from another terminal.
//
// Usage:
//
//	gcmon -gc none -duration 10s    # Figure 2: unbounded growth
//	gcmon -gc hg   -duration 10s    # HybridGC keeps it flat
//	gcmon -addr 127.0.0.1:7654      # watch a remote server's indicators
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
	"hybridgc/internal/workload"
)

func main() {
	var (
		duration = flag.Duration("duration", 10*time.Second, "run duration")
		interval = flag.Duration("interval", 500*time.Millisecond, "indicator print interval")
		mode     = flag.String("gc", "none", "garbage collection mode: none, gt, gttg, hg")
		cursor   = flag.Bool("cursor", true, "hold a long-duration cursor on STOCK")
		soft     = flag.Int64("soft", 0, "version-budget soft watermark (0 disables the budget)")
		hard     = flag.Int64("hard", 0, "version-budget hard watermark (0 derives 2*soft)")
		addr     = flag.String("addr", "", "hybridgcd address; empty runs the workload in-process")
		token    = flag.String("token", "", "auth token for -addr")
	)
	flag.Parse()

	if *addr != "" {
		monitorRemote(*addr, *token, *duration, *interval)
		return
	}

	m, err := workload.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	base := gc.Periods{GT: 50 * time.Millisecond, TG: 150 * time.Millisecond, SI: 500 * time.Millisecond}
	db, err := core.Open(core.Config{
		GC:                 m.Periods(base),
		LongLivedThreshold: 100 * time.Millisecond,
		VersionBudget:      core.VersionBudget{Soft: *soft, Hard: *hard},
	})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	driver, err := tpcc.New(db, tpcc.Config{Warehouses: 2, Items: 150, CustomersPerDistrict: 20})
	if err != nil {
		fatal(err)
	}
	if err := driver.Load(); err != nil {
		fatal(err)
	}
	if m != workload.ModeNone {
		db.GC().Start()
		defer db.GC().Stop()
	}
	if *cursor {
		cur, err := db.OpenCursor(driver.StockTableID())
		if err != nil {
			fatal(err)
		}
		defer cur.Close()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= driver.Config().Warehouses; w++ {
		wg.Add(1)
		go func(wk *tpcc.Worker) {
			defer wg.Done()
			_ = wk.Run(1<<62, stop)
		}(driver.NewWorker(w))
	}

	budgeted := db.PressureStats().Enabled
	fmt.Printf("gcmon: GC=%s cursor=%v budget=%v — the Figure 2 indicators\n", m, *cursor, budgeted)
	fmt.Printf("%-8s %-16s %-22s %-14s %-10s %s\n",
		"t", "Active Versions", "Active CID Range", "Used Memory", "Reclaimed", "Pressure")
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	deadline := time.After(*duration)
	start := time.Now()
loop:
	for {
		select {
		case <-tick.C:
			st := db.Stats()
			mem := st.VersionsLiveBytes
			fmt.Printf("%-8s %-16d %-22d %-14s %-10d %s\n",
				fmt.Sprintf("%.1fs", time.Since(start).Seconds()),
				st.VersionsLive, st.ActiveCIDRange, fmtBytes(mem), st.VersionsReclaimed,
				fmtPressure(st))
		case <-deadline:
			break loop
		}
	}
	close(stop)
	wg.Wait()
	st := db.Stats()
	fmt.Printf("\nfinal: versions=%d reclaimed=%d migrated=%d collision=%.2f failstop=%v\n",
		st.VersionsLive, st.VersionsReclaimed, st.VersionsMigrated, st.Hash.CollisionRatio, st.FailStop)
	if p := st.Pressure; p.Enabled {
		fmt.Printf("pressure: level=%s live=%d/%d (%.0f%%) softtrips=%d emergencies=%d backpressured=%d rejected=%d evicted=%d\n",
			p.Level, p.Live, p.Hard, 100*p.Utilization,
			p.SoftTrips, p.Emergencies, p.Backpressured, p.Rejected, p.Evicted)
	}
	fmt.Println("Figure 9 regions:", gc.CurrentRegions(db.Manager()))
}

// monitorRemote prints the same indicator columns from a running hybridgcd,
// one STATS round trip per tick.
func monitorRemote(addr, token string, duration, interval time.Duration) {
	cl, err := client.Dial(client.Config{Addr: addr, Token: token, MaxConns: 1})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	fmt.Printf("gcmon: monitoring %s — the Figure 2 indicators\n", addr)
	fmt.Printf("%-8s %-16s %-22s %-14s %-10s %s\n",
		"t", "Active Versions", "Active CID Range", "Used Memory", "Reclaimed", "Pressure")
	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.After(duration)
	start := time.Now()
	for {
		select {
		case <-tick.C:
			st, err := cl.Stats()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8s %-16d %-22d %-14s %-10d %s\n",
				fmt.Sprintf("%.1fs", time.Since(start).Seconds()),
				st.VersionsLive, st.ActiveCIDRange, fmtBytes(st.VersionsLiveBytes),
				st.VersionsReclaimed, fmtRemotePressure(st))
			for _, line := range fmtShards(st) {
				fmt.Println(line)
			}
			for _, line := range fmtHTAP(st) {
				fmt.Println(line)
			}
			for _, line := range fmtRepl(st) {
				fmt.Println(line)
			}
		case <-deadline:
			st, err := cl.Stats()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\nfinal: versions=%d reclaimed=%d migrated=%d cursors open=%d failstop=%v\n",
				st.VersionsLive, st.VersionsReclaimed, st.VersionsMigrated, st.CursorsOpen, st.FailStop)
			for _, line := range fmtShards(st) {
				fmt.Println(line)
			}
			for _, line := range fmtHTAP(st) {
				fmt.Println(line)
			}
			for _, line := range fmtRepl(st) {
				fmt.Println(line)
			}
			return
		}
	}
}

// fmtShards renders one row per shard of a sharded server, under the
// aggregate indicator row. The slice is empty for a single-node server, so
// the classic display is untouched. GC horizons are per-shard by design —
// seeing shard 2's horizon stall under a pinned cursor while the others keep
// advancing is the point of the view.
func fmtShards(st wire.Stats) []string {
	if len(st.Shards) == 0 {
		return nil
	}
	lines := make([]string, 0, len(st.Shards))
	for i, s := range st.Shards {
		flag := ""
		if s.FailStop {
			flag = " FAILSTOP"
		}
		lines = append(lines, fmt.Sprintf(
			"  shard %-2d live=%-10d horizon=%-10d cid=%-10d reclaimed=%-10d snaps=%-4d committed=%d%s",
			i, s.VersionsLive, s.GlobalHorizon, s.CurrentCID, s.VersionsReclaimed,
			s.ActiveSnapshots, s.TxnsCommitted, flag))
	}
	return lines
}

// fmtHTAP renders the column-lane state carried in a remote STATS payload:
// one line per lane-enabled table showing how much of it is columnar, what
// still rides the row-store delta or dirty set, and how far the migrator's
// watermark trails the commit timestamp. Empty when no lanes are enabled,
// so the classic display is untouched.
func fmtHTAP(st wire.Stats) []string {
	lines := make([]string, 0, len(st.HTAP))
	for _, h := range st.HTAP {
		lines = append(lines, fmt.Sprintf(
			"  htap: %-12s chunks=%-4d rows=%-10d delta=%-8d dirty=%-8d migrated=%-10d wm=%-10d lag=%d",
			h.Name, h.Chunks, h.ChunkRows, h.DeltaRows, h.DirtyRows, h.MigratedRows, h.Watermark, h.Lag))
	}
	return lines
}

// fmtRepl renders the replication state carried in a remote STATS payload:
// on a primary, one line per known replica (applied position, segment lag,
// pinned snapshot timestamp, report age, demotion); on a replica, its
// applied cursor against the primary's stream head.
func fmtRepl(st wire.Stats) []string {
	switch st.ReplRole {
	case "primary":
		lines := []string{fmt.Sprintf("  repl: primary head=%s sent=%d demotions=%d",
			wal.LSN(st.ReplPrimaryLSN), st.ReplRecordsSent, st.ReplDemotions)}
		for _, r := range st.Replicas {
			state := "connected"
			if r.Demoted {
				state = "DEMOTED"
			} else if !r.Connected {
				state = "away"
			}
			pin := "-"
			if r.PinnedSTS != 0 {
				pin = fmt.Sprintf("%d", r.PinnedSTS)
			}
			lines = append(lines, fmt.Sprintf("  repl:   %-12s %-9s applied=%-12s lag=%dseg pin=%s age=%s",
				r.ID, state, wal.LSN(r.AppliedLSN), r.SegmentLag, pin, r.LastReportAge.Truncate(time.Millisecond)))
		}
		return lines
	case "replica":
		lines := []string{fmt.Sprintf("  repl: replica of %s applied=%s head=%s applied-records=%d reconnects=%d",
			st.ReplUpstream, wal.LSN(st.ReplAppliedLSN), wal.LSN(st.ReplPrimaryLSN),
			st.ReplRecordsApplied, st.ReplReconnects)}
		// Read routing: how often gated reads had to wait for the applier,
		// and how often they bounced back to the pool (replica behind the
		// session token past the wait budget).
		if st.ReadGateWaits > 0 || st.ReadGateBounces > 0 {
			lag := int64(st.ReplPrimaryLSN) - int64(st.ReplAppliedLSN)
			if lag < 0 {
				lag = 0
			}
			lines = append(lines, fmt.Sprintf("  repl:   read-gate waits=%d bounces=%d lag=%d",
				st.ReadGateWaits, st.ReadGateBounces, lag))
		}
		return lines
	default:
		return nil
	}
}

// fmtRemotePressure is fmtPressure over the wire-stats shape.
func fmtRemotePressure(st wire.Stats) string {
	if !st.PressureEnabled {
		return "-"
	}
	var util float64
	if st.PressureHard > 0 {
		util = float64(st.PressureLive) / float64(st.PressureHard)
	}
	s := fmt.Sprintf("%s %.0f%%", st.PressureLevel, 100*util)
	if st.PressureRejected > 0 || st.PressureEvicted > 0 {
		s += fmt.Sprintf(" (rej=%d evict=%d)", st.PressureRejected, st.PressureEvicted)
	}
	return s
}

// fmtPressure renders the degradation-ladder column: "-" without a budget,
// otherwise the current rung and hard-watermark utilization.
func fmtPressure(st core.Stats) string {
	p := st.Pressure
	if !p.Enabled {
		return "-"
	}
	s := fmt.Sprintf("%s %.0f%%", p.Level, 100*p.Utilization)
	if p.Rejected > 0 || p.Evicted > 0 {
		s += fmt.Sprintf(" (rej=%d evict=%d)", p.Rejected, p.Evicted)
	}
	return s
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcmon:", err)
	os.Exit(1)
}
