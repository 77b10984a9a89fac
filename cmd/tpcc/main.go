// Command tpcc runs the modified TPC-C benchmark (§5.1) standalone against
// the engine: one worker per warehouse bound to its home warehouse, the
// configured garbage collection mode, and a final consistency check. It
// prints throughput, per-profile transaction counts, and engine statistics.
//
// With -addr the benchmark runs remotely: the same driver and profiles go
// through internal/client to a hybridgcd server, with transient wire errors
// (write conflicts, version pressure) retried by the same core.Retry policy
// as the in-process path.
//
// Usage:
//
//	tpcc -warehouses 4 -duration 10s -gc hg
//	tpcc -gc none -duration 3s          # watch the version space overflow
//	tpcc -addr 127.0.0.1:7654           # drive a running hybridgcd
//	tpcc -addr 127.0.0.1:7654 -olap 2   # plus analysts over the column lane
//
// The nine TPC-C tables are SQL tables, created through the catalog with
// their tpcc.Schemas columns, so SQL sessions and the column lane read them.
// With -olap (against a server running -htap) the analysts arm the lanes of
// ORDERLINE and STOCK and aggregate over them while the workers write.
//
// A server that already holds TPC-C (a restarted hybridgcd -data) is not
// loaded again: the driver attaches to its tables, once their row counts
// match what the flags would load.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/profiling"
	"hybridgc/internal/server"
	"hybridgc/internal/shard"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/wire"
	"hybridgc/internal/workload"
)

// options is the parsed command line.
type options struct {
	warehouses, items, customers, districts int
	duration                                time.Duration
	mode                                    gc.Mode
	seed                                    int64
	cursor, check, cross                    bool
	shards, olap, readers                   int
	readReplicas                            string
	addr, token, checkAddr, checkToken      string
}

// report is what a run measured — the numbers the summary prints, returned
// so the smoke tests assert on them instead of on text.
type report struct {
	committed      int64               // TPC-C transactions, all profiles
	cross          int64               // of which crossed shards (two-phase commit)
	lanes          []htap.TableStats   // -olap: the server's column lanes after the run
	pool           client.PoolCounters // -read-replicas: where pooled reads were served
	sessionReads   int64               // -read-replicas: read-your-writes checks made
	rywViolations  int64               // ... and how many failed
	checkedReplica bool                // the consistency check ran on -check-addr
}

func main() {
	var o options
	flag.IntVar(&o.warehouses, "warehouses", 4, "number of warehouses (and workers)")
	flag.IntVar(&o.items, "items", 200, "items per warehouse")
	flag.IntVar(&o.customers, "customers", 30, "customers per district")
	flag.IntVar(&o.districts, "districts", 10, "districts per warehouse")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "benchmark duration")
	mode := flag.String("gc", "hg", "garbage collection mode: none, gt, gttg, hg (local mode only)")
	flag.BoolVar(&o.cursor, "cursor", false, "hold a long-duration cursor on STOCK (the paper's GC blocker)")
	flag.BoolVar(&o.check, "check", true, "run TPC-C consistency checks at the end")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.shards, "shards", 1, "run the in-process engine sharded N ways (local mode only)")
	flag.BoolVar(&o.cross, "cross", false, "enable TPC-C remote clauses (15% remote Payment, 1% remote supply per NewOrder line); auto-enabled when sharded")
	flag.IntVar(&o.olap, "olap", 0, "OLAP analysts running column-lane aggregates over ORDERLINE and STOCK beside the OLTP load (remote mode; server needs -htap)")
	flag.StringVar(&o.readReplicas, "read-replicas", "", "comma-separated replica addresses; analyst reads route through the read/write-splitting pool (remote mode)")
	flag.IntVar(&o.readers, "readers", 2, "analyst goroutines reading through the pool (with -read-replicas)")
	flag.StringVar(&o.addr, "addr", "", "hybridgcd address; empty runs the engine in-process")
	flag.StringVar(&o.token, "token", "", "auth token for -addr")
	flag.StringVar(&o.checkAddr, "check-addr", "", "read-only endpoint (e.g. a replica) to run the consistency check against")
	flag.StringVar(&o.checkToken, "check-token", "", "auth token for -check-addr")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()

	var err error
	if o.mode, err = gc.ParseMode(*mode); err == nil {
		err = o.validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := profiling.Start(prof); err != nil {
		fatal(err)
	}
	defer profiling.Stop()
	if _, err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// validate rejects flag combinations that only make sense on the other side
// of -addr.
func (o *options) validate() error {
	remote := o.addr != ""
	switch {
	case remote && o.cursor:
		return errors.New("-cursor is local-only; against a server, a client holds the cursor (client.Query)")
	case remote && o.shards > 1:
		return errors.New("-shards is local-only; a remote engine's shard count is the server's -shards")
	case !remote && o.olap > 0:
		return errors.New("-olap is remote-only; the in-process mixed workload is `hybridgc-bench -fig ext2`")
	case !remote && o.readReplicas != "":
		return errors.New("-read-replicas is remote-only; point -addr at the primary")
	}
	return nil
}

// run loads TPC-C (or attaches to a server that holds it), drives it for
// o.duration with whatever rides along (-cursor, -olap, -read-replicas),
// prints the summary to w and runs the consistency check. Any failure — a lane that cannot be armed, a failed
// check, an endpoint that never catches up — is the returned error.
func run(o options, w io.Writer) (*report, error) {
	remote := o.addr != ""
	m := o.mode
	rep := &report{}

	cfg := tpcc.Config{
		Warehouses:           o.warehouses,
		Districts:            o.districts,
		CustomersPerDistrict: o.customers,
		Items:                o.items,
		Seed:                 o.seed,
	}
	var (
		driver   *tpcc.Driver
		attached bool // the server already held TPC-C
		eng      engine.Engine
		cl       *client.Client
		// stats reads the engine under load: STATS from the server when
		// remote, the same assembly without a listener when in-process.
		stats func() (wire.Stats, error)
		err   error
	)
	if remote {
		cl, err = client.Dial(client.Config{Addr: o.addr, Token: o.token, MaxConns: o.warehouses + 2})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		stats = cl.Stats
		cfg.CrossWarehouse = o.cross || cl.ShardCount() > 1
		_, err = cl.TableIDs(tpcc.TableWarehouse)
		switch attached = err == nil; {
		case attached:
			driver, err = attach(cl, cfg)
		case errors.Is(err, core.ErrTableNotFound):
			driver, err = tpcc.NewWithBackend(tpcc.RemoteBackend(cl), cfg)
		}
	} else {
		engCfg := core.Config{GC: m.Periods(gc.DefaultPeriods())}
		if o.shards > 1 {
			var clu *shard.Cluster
			clu, err = shard.Open(shard.Config{
				Shards:    o.shards,
				Configure: func(int) core.Config { return engCfg },
			})
			if err != nil {
				return nil, err
			}
			eng = clu
		} else {
			var db *core.DB
			db, err = core.Open(engCfg)
			if err != nil {
				return nil, err
			}
			eng = engine.NewSingle(db)
		}
		defer eng.Close()
		var srv *server.Server
		if srv, err = server.NewEngine(eng, server.Config{}); err != nil {
			return nil, err
		}
		stats = func() (wire.Stats, error) { return srv.Stats(), nil }
		cfg.CrossWarehouse = o.cross || o.shards > 1
		driver, err = tpcc.NewWithBackend(tpcc.EngineBackend(eng), cfg)
	}
	if err != nil {
		return nil, err
	}
	if attached {
		fmt.Fprintf(w, "attached to the server's TPC-C: %d warehouses, %d districts, %d customers/district, %d items\n",
			o.warehouses, o.districts, o.customers, o.items)
	} else {
		fmt.Fprintf(w, "loading TPC-C: %d warehouses, %d districts, %d customers/district, %d items...\n",
			o.warehouses, o.districts, o.customers, o.items)
		if err := driver.Load(); err != nil {
			return nil, err
		}
	}

	if !remote {
		for i := 0; i < eng.Shards(); i++ {
			eng.Shard(i).GC().Start()
		}
	}

	before, err := stats()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	load, err := workload.Start(driver, eng, workload.Options{LongCursor: o.cursor})
	if err != nil {
		return nil, err
	}
	// Stop also runs on the error returns between here and the end of the
	// measured window; everything below joins the load's group.
	defer load.Stop()
	if load.Cursor != nil {
		fmt.Fprintf(w, "long-duration cursor opened on STOCK at snapshot %d\n", load.Cursor.SnapshotTS())
	}
	switch {
	case remote:
		fmt.Fprintf(w, "running %v against %s...\n", o.duration, o.addr)
	case eng.Shards() > 1:
		fmt.Fprintf(w, "running %v with GC mode %s over %d shards...\n", o.duration, m, eng.Shards())
	default:
		fmt.Fprintf(w, "running %v with GC mode %s...\n", o.duration, m)
	}
	var ol *olapLoad
	if o.olap > 0 {
		if ol, err = startOLAP(load.Group, cl, o.olap); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "olap: %d analysts aggregating over the ORDERLINE and STOCK lanes\n", o.olap)
	}
	var (
		pool *client.ReadPool
		rp   *workload.ReadPool
	)
	if o.readReplicas != "" {
		if pool, err = client.NewReadPool(client.PoolConfig{
			Primary:  o.addr,
			Replicas: strings.FieldsFunc(o.readReplicas, func(r rune) bool { return r == ',' || r == ' ' }),
			Client:   client.Config{Token: o.token, MaxConns: o.readers + 2},
		}); err != nil {
			return nil, err
		}
		defer pool.Close()
		if rp, err = workload.StartReadPool(load.Group, pool, o.readers); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "readpool: %d analysts reading through the replica pool\n", o.readers)
	}
	time.Sleep(o.duration)
	if err := load.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "tpcc: load:", err)
	}
	elapsed := time.Since(start)

	st, err := stats()
	if err != nil {
		return nil, err
	}
	stmts := st.Statements - before.Statements
	fmt.Fprintf(w, "\nthroughput: %.0f committed statements/s (%d statements in %v)\n",
		float64(stmts)/elapsed.Seconds(), stmts, elapsed.Round(time.Millisecond))
	if ol != nil {
		ol.report(w, st.HTAP, elapsed)
		rep.lanes = st.HTAP
	}
	if rp != nil {
		rep.pool = pool.Counters()
		rep.sessionReads, rep.rywViolations = rp.Reads.Load(), rp.Violations.Load()
		fmt.Fprintf(w, "readpool: %.0f reads/s (%d session reads over %d rows) replica=%d primary=%d bounces=%d failovers=%d\n",
			float64(rep.sessionReads)/elapsed.Seconds(), rep.sessionReads, rp.Inserts.Load(),
			rep.pool.ReplicaReads, rep.pool.PrimaryReads, rep.pool.Bounces, rep.pool.Failovers)
		fmt.Fprintf(w, "readpool: ryw-violations=%d token=%d\n", rep.rywViolations, pool.Token())
	}
	for t := tpcc.TxnNewOrder; t <= tpcc.TxnStockLevel; t++ {
		var committed, aborted, crossed int64
		for _, wk := range load.Workers {
			committed += wk.Stats.Committed[t].Load()
			aborted += wk.Stats.Aborted[t].Load()
			crossed += wk.Stats.Cross[t].Load()
		}
		if cfg.CrossWarehouse {
			fmt.Fprintf(w, "  %-12s committed=%-8d aborted=%-6d cross-shard=%d\n", t, committed, aborted, crossed)
		} else {
			fmt.Fprintf(w, "  %-12s committed=%-8d aborted=%d\n", t, committed, aborted)
		}
	}

	// Per-warehouse breakdown: one worker per warehouse, so worker stats are
	// warehouse stats. The cross-shard column is the share of that worker's
	// committed transactions that crossed shards and went through two-phase
	// commit (~10% of NewOrder+Payment when the remote clauses are on).
	fmt.Fprintln(w, "\nper-warehouse:")
	for _, wk := range load.Workers {
		committed := wk.Stats.TotalCommitted()
		crossed := wk.Stats.TotalCross()
		var aborted int64
		for t := tpcc.TxnNewOrder; t <= tpcc.TxnStockLevel; t++ {
			aborted += wk.Stats.Aborted[t].Load()
		}
		rep.committed += committed
		rep.cross += crossed
		share := 0.0
		if committed > 0 {
			share = 100 * float64(crossed) / float64(committed)
		}
		fmt.Fprintf(w, "  W%-3d shard %-2d committed=%-8d aborted=%-6d cross-shard=%d (%.1f%%)\n",
			wk.Warehouse(), driver.HomeShard(wk.Warehouse()), committed, aborted, crossed, share)
	}
	if rep.committed > 0 {
		fmt.Fprintf(w, "  total cross-shard share: %.1f%% of %d committed\n",
			100*float64(rep.cross)/float64(rep.committed), rep.committed)
	}
	fmt.Fprintf(w, "\nversion space: live=%d created=%d reclaimed=%d migrated=%d\n",
		st.VersionsLive, st.VersionsCreated, st.VersionsReclaimed, st.VersionsMigrated)
	for i, ss := range st.Shards {
		fmt.Fprintf(w, "  shard %d: live=%-7d reclaimed=%-8d horizon=%d committed=%d\n",
			i, ss.VersionsLive, ss.VersionsReclaimed, ss.GlobalHorizon, ss.Txn.TxnsCommitted)
	}
	fmt.Fprintf(w, "hash table: %d chains over %d buckets (collision ratio %.2f)\n",
		st.Hash.Chains, st.Hash.Buckets, st.Hash.CollisionRatio)
	fmt.Fprintf(w, "commit groups pending: %d, txns committed: %d, groups: %d\n",
		st.GroupListLen, st.Txn.TxnsCommitted, st.Txn.GroupsCommitted)
	if remote {
		fmt.Fprintf(w, "service: %d requests (%d errors) over %d conns, %s in / %s out, latency p50=%v p99=%v\n",
			st.Requests, st.RequestErrors, st.ConnsTotal,
			fmtBytes(st.BytesIn), fmtBytes(st.BytesOut), st.LatP50, st.LatP99)
	}

	if o.check {
		if o.checkAddr != "" {
			// Route the check leg through the read-only endpoint — its
			// snapshot must first catch up to the primary's commit
			// timestamp, since replication is asynchronous.
			ccl, err := client.Dial(client.Config{Addr: o.checkAddr, Token: o.checkToken, MaxConns: 1})
			if err != nil {
				return nil, err
			}
			defer ccl.Close()
			target := uint64(st.CurrentCID)
			fmt.Fprintf(w, "\nwaiting for %s to reach CID %d... ", o.checkAddr, target)
			if err := waitForCID(ccl, target, 30*time.Second); err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "caught up")
			driver.SetCheckBackend(tpcc.RemoteBackend(ccl))
			rep.checkedReplica = true
		}
		fmt.Fprint(w, "\nconsistency check... ")
		if err := driver.Check(); err != nil {
			fmt.Fprintln(w, "FAILED")
			return nil, err
		}
		fmt.Fprintln(w, "OK")
	}
	return rep, nil
}

// attach binds the driver to the TPC-C tables a server already holds, once
// the row counts of WAREHOUSE, DISTRICT, CUSTOMER and ITEM are what the flags
// would load: data loaded under other flags is refused here, by table and
// count, instead of failing the consistency check after the run.
func attach(cl *client.Client, cfg tpcc.Config) (*tpcc.Driver, error) {
	for _, c := range []struct {
		table, flags string
		want         int
	}{
		{tpcc.TableWarehouse, "-warehouses", cfg.Warehouses},
		{tpcc.TableDistrict, "-warehouses × -districts", cfg.Warehouses * cfg.Districts},
		{tpcc.TableCustomer, "-warehouses × -districts × -customers", cfg.Warehouses * cfg.Districts * cfg.CustomersPerDistrict},
		{tpcc.TableItem, "-items", cfg.Items},
	} {
		res, err := cl.Exec("SELECT COUNT(*) FROM " + c.table)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return nil, fmt.Errorf("counting %s: %d result rows", c.table, len(res.Rows))
		}
		if got := res.Rows[0][0].I; got != int64(c.want) {
			return nil, fmt.Errorf("the server's TPC-C has %d %s rows, but %s loads %d: pass the flags it was loaded with, or start the server on an empty -data directory",
				got, c.table, c.flags, c.want)
		}
	}
	return tpcc.AttachBackend(tpcc.RemoteBackend(cl), cfg)
}

// waitForCID polls the endpoint's STATS until its commit timestamp reaches
// target — CIDs are primary-assigned, so both ends share one CID space.
func waitForCID(cl *client.Client, target uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		if uint64(st.CurrentCID) >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("endpoint stuck at CID %d, want %d", st.CurrentCID, target)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpcc:", err)
	profiling.Stop() // flush -cpuprofile/-memprofile even on the error path
	os.Exit(1)
}
