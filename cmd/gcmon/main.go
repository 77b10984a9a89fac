// Command gcmon reproduces the HANA system-load view of Figure 2 as a
// terminal ticker: it runs the mixed OLTP/OLAP workload and prints the
// figure's indicators once per interval — Active Versions, the Active
// Commit ID Range (current CID minus the oldest active snapshot timestamp),
// and the estimated version-space memory — so the version-space overflow
// phenomenon, and its disappearance under HybridGC, can be watched live.
//
// With -addr it monitors a running hybridgcd instead: each tick is one STATS
// round trip, so the same indicator columns describe a remote engine — for
// example one being driven by `tpcc -addr` from another terminal. Either way
// what is printed is one wire.Stats per tick, through one print path.
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
	"io"
	"os"
	"sync"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/server"
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
		cl, err := client.Dial(client.Config{Addr: *addr, Token: *token, MaxConns: 1})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		fmt.Printf("gcmon: monitoring %s — the Figure 2 indicators\n", *addr)
		watch(os.Stdout, cl.Stats, *duration, *interval)
		printFinal(os.Stdout, cl.Stats)
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

	// The in-process source is the server's own STATS assembly, minus the
	// listener: the same wire.Stats a remote gcmon would be sent.
	srv, err := server.New(db, server.Config{})
	if err != nil {
		fatal(err)
	}
	src := func() (wire.Stats, error) { return srv.Stats(), nil }

	fmt.Printf("gcmon: GC=%s cursor=%v budget=%v — the Figure 2 indicators\n", m, *cursor, db.PressureStats().Enabled)
	watch(os.Stdout, src, *duration, *interval)
	close(stop)
	wg.Wait()
	printFinal(os.Stdout, src)
	fmt.Println("Figure 9 regions:", gc.CurrentRegions(db.Manager()))
}

// source is where a tick's indicators come from: client.Stats for a remote
// server, the in-process server's Stats otherwise.
type source func() (wire.Stats, error)

// watch prints the column header, then one tick per interval until duration
// has passed.
func watch(w io.Writer, src source, duration, interval time.Duration) {
	fmt.Fprintf(w, "%-8s %-16s %-22s %-14s %-10s %s\n",
		"t", "Active Versions", "Active CID Range", "Used Memory", "Reclaimed", "Pressure")
	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.After(duration)
	start := time.Now()
	for {
		select {
		case <-tick.C:
			st, err := src()
			if err != nil {
				fatal(err)
			}
			printTick(w, time.Since(start), st)
		case <-deadline:
			return
		}
	}
}

// printTick renders one reading: the Figure 2 row, then whatever the node
// has beyond a plain single engine — shard rows, column lanes, replication.
func printTick(w io.Writer, elapsed time.Duration, st wire.Stats) {
	fmt.Fprintf(w, "%-8s %-16d %-22d %-14s %-10d %s\n",
		fmt.Sprintf("%.1fs", elapsed.Seconds()),
		st.VersionsLive, st.ActiveCIDRange, fmtBytes(st.VersionsLiveBytes),
		st.VersionsReclaimed, fmtPressure(st.Pressure))
	printDetail(w, st)
}

// printFinal renders the closing summary from one last reading.
func printFinal(w io.Writer, src source) {
	st, err := src()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "\nfinal: versions=%d reclaimed=%d migrated=%d collision=%.2f cursors open=%d failstop=%v\n",
		st.VersionsLive, st.VersionsReclaimed, st.VersionsMigrated, st.Hash.CollisionRatio, st.CursorsOpen, st.FailStop)
	if p := st.Pressure; p.Enabled {
		fmt.Fprintf(w, "pressure: level=%s live=%d/%d (%.0f%%) softtrips=%d emergencies=%d backpressured=%d rejected=%d evicted=%d\n",
			p.Level, p.Live, p.Hard, 100*p.Utilization,
			p.SoftTrips, p.Emergencies, p.Backpressured, p.Rejected, p.Evicted)
	}
	printDetail(w, st)
}

// printDetail renders what a node has beyond a plain single engine; every
// part is empty on one, so the classic display is untouched. Shard rows: GC
// horizons are per-shard by design — seeing shard 2's horizon stall under a
// pinned cursor while the others keep advancing is the point of the view.
// Column lanes: how much of each table is columnar, what still rides the
// row-store delta or dirty set, and how far the migrator's watermark trails
// the commit timestamp. Replication: on a primary one line per known replica
// (applied position, segment lag, pinned snapshot timestamp, report age,
// demotion); on a replica its applied cursor against the stream head.
func printDetail(w io.Writer, st wire.Stats) {
	for i, s := range st.Shards {
		flag := ""
		if s.FailStop {
			flag = " FAILSTOP"
		}
		fmt.Fprintf(w, "  shard %-2d live=%-10d horizon=%-10d cid=%-10d reclaimed=%-10d snaps=%-4d committed=%d%s\n",
			i, s.VersionsLive, s.GlobalHorizon, s.CurrentCID, s.VersionsReclaimed,
			s.ActiveSnapshots, s.Txn.TxnsCommitted, flag)
	}
	for _, h := range st.HTAP {
		fmt.Fprintf(w, "  htap: %-12s chunks=%-4d rows=%-10d delta=%-8d dirty=%-8d migrated=%-10d wm=%-10d lag=%d\n",
			h.Name, h.Chunks, h.ChunkRows, h.DeltaRows, h.DirtyRows, h.MigratedRows, h.Watermark, h.Lag)
	}
	switch st.ReplRole {
	case "primary":
		fmt.Fprintf(w, "  repl: primary head=%s sent=%d demotions=%d\n",
			wal.LSN(st.ReplPrimaryLSN), st.ReplRecordsSent, st.ReplDemotions)
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
			fmt.Fprintf(w, "  repl:   %-12s %-9s applied=%-12s lag=%dseg pin=%s age=%s\n",
				r.ID, state, wal.LSN(r.AppliedLSN), r.SegmentLag, pin, r.LastReportAge.Truncate(time.Millisecond))
		}
	case "replica":
		fmt.Fprintf(w, "  repl: replica of %s applied=%s head=%s applied-records=%d reconnects=%d\n",
			st.ReplUpstream, wal.LSN(st.ReplAppliedLSN), wal.LSN(st.ReplPrimaryLSN),
			st.ReplRecordsApplied, st.ReplReconnects)
		// Read routing: how often gated reads had to wait for the applier,
		// and how often they bounced back to the pool (replica behind the
		// session token past the wait budget).
		if st.ReadGateWaits > 0 || st.ReadGateBounces > 0 {
			lag := max(0, int64(st.ReplPrimaryLSN)-int64(st.ReplAppliedLSN))
			fmt.Fprintf(w, "  repl:   read-gate waits=%d bounces=%d lag=%d\n",
				st.ReadGateWaits, st.ReadGateBounces, lag)
		}
	}
}

// fmtPressure renders the degradation-ladder column: "-" without a budget,
// otherwise the current rung and hard-watermark utilization.
func fmtPressure(p core.PressureStats) string {
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
