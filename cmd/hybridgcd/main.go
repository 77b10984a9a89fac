// Command hybridgcd serves one hybridgc engine over TCP using the wire
// protocol in internal/wire. Clients (internal/client, cmd/tpcc -addr,
// cmd/gcmon -addr) speak length-prefixed binary frames; each connection gets
// its own SQL session, explicit-transaction scope and query cursors, so a
// remote long-lived cursor pins a snapshot in this process exactly like an
// in-process one — the paper's Figure 2 blocker, observable over the
// network.
//
// The process is one internal/node: this file only turns flags into a
// node.Config, starts it and waits for a signal.
//
// With -data the engine is persistent (WAL + checkpoints) and also acts as a
// replication primary: replicas connect with OpReplStream, and their
// reported snapshots join the cluster-wide GC horizon. With -replica-of the
// process is a replica instead: it bootstraps from the primary's checkpoint,
// tails its WAL, and serves read-only snapshot queries; local writes fail
// with ErrReadOnly. A demoted replica (too far behind the primary's segment
// retention) automatically rebuilds itself from a fresh checkpoint.
//
// With -htap the process runs the background row→column migrator: clients
// arm tables with the HTAP-ENABLE verb (client.EnableHTAP), after which
// committed versions older than the GC horizon are shipped into
// dictionary-encoded column chunks and lane-eligible aggregates (one
// aggregate, an optional GROUP BY and no WHERE: SELECT SUM(col) FROM t, sent
// with client.Exec) are served from columnar batches instead of MVCC row
// reads. An armed lane is a row of
// the SQL catalog, so a restarted -htap process re-arms it.
//
// SIGTERM / SIGINT drain gracefully: the listener closes, in-flight requests
// finish and get their responses, replication streams end with a drain
// notice, and every open cursor is closed so its pinned snapshot stops
// blocking garbage collection before the process exits.
//
// Usage:
//
//	hybridgcd -addr :7654 -gc hg
//	hybridgcd -addr :7654 -data /var/lib/hgc -checkpoint-every 30s
//	hybridgcd -addr :7655 -replica-of 127.0.0.1:7654 -replica-id r1
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/node"
	"hybridgc/internal/profiling"
	"hybridgc/internal/wal"
)

// parse turns the command line into a validated node.Config. Which settings
// a role can honour is node's decision (Config.Validate); parse only keeps a
// flag's default from counting as a setting for a role that never reads it.
func parse(fs *flag.FlagSet, args []string) (node.Config, profiling.Flags, error) {
	var (
		cfg  node.Config
		prof profiling.Flags
	)
	fs.StringVar(&cfg.Server.Addr, "addr", "127.0.0.1:7654", "listen address")
	fs.StringVar(&cfg.Server.Token, "token", "", "auth token clients must present in HELLO (empty disables auth)")
	fs.IntVar(&cfg.Server.MaxConns, "maxconns", 256, "maximum concurrent connections")
	fs.DurationVar(&cfg.Server.IdleTimeout, "idle", 2*time.Minute, "per-connection idle timeout (releases cursors of silent peers)")
	mode := fs.String("gc", "hg", "garbage collection mode: none, gt, gttg, hg")
	fs.Int64Var(&cfg.Soft, "soft", 0, "version-budget soft watermark (0 disables the budget)")
	fs.Int64Var(&cfg.Hard, "hard", 0, "version-budget hard watermark (0 derives 2*soft)")
	fs.IntVar(&cfg.Shards, "shards", 1, "engine shard count; >1 serves a horizontally sharded engine with per-shard WALs, GC and horizons")

	fs.StringVar(&cfg.Data, "data", "", "persistence directory (WAL + checkpoints); enables serving replicas")
	fs.BoolVar(&cfg.Sync, "sync", false, "fsync the WAL on every commit group")
	fs.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "periodic checkpoint interval (0 disables; requires -data)")

	fs.StringVar(&cfg.Replica.Upstream, "replica-of", "", "primary address; run as a read-only replica of it")
	fs.StringVar(&cfg.Replica.ReplicaID, "replica-id", "replica", "stable replica identity reported to the primary")
	fs.StringVar(&cfg.Replica.Token, "upstream-token", "", "auth token for the primary (replica mode)")
	fs.DurationVar(&cfg.TokenWait, "token-wait", 150*time.Millisecond, "replica mode: how long a read carrying a consistency token waits for the applier before bouncing with replica-behind")

	replStale := fs.Duration("repl-stale-after", 0, "demote a silent replica after this long; replica: tolerated primary silence (0 selects defaults)")
	replWrite := fs.Duration("repl-write-timeout", 0, "per-write deadline on replication streams (0 selects the default)")

	fs.BoolVar(&cfg.HTAP, "htap", false, "run the background row→column migrator; clients arm tables with the HTAP-ENABLE verb")
	fs.DurationVar(&cfg.HTAPEvery, "htap-every", 25*time.Millisecond, "migrator pass interval (requires -htap)")
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, prof, err
	}

	var err error
	if cfg.GC, err = gc.ParseMode(*mode); err != nil {
		return cfg, prof, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if cfg.Replica.Upstream != "" {
		cfg.Replica.StallTimeout, cfg.Replica.WriteTimeout = *replStale, *replWrite
	} else {
		cfg.Source.StaleAfter, cfg.Source.WriteTimeout = *replStale, *replWrite
		if !set["replica-id"] {
			cfg.Replica.ReplicaID = ""
		}
		if !set["token-wait"] {
			cfg.TokenWait = 0
		}
	}
	if !cfg.HTAP && !set["htap-every"] {
		cfg.HTAPEvery = 0
	}
	return cfg, prof, cfg.Validate()
}

func main() {
	cfg, prof, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridgcd:", err)
		os.Exit(2)
	}
	if err := profiling.Start(prof); err != nil {
		fatal(err)
	}
	defer profiling.Stop()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	n, err := node.Start(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.Shards > 1 && cfg.Data != "" {
		fmt.Println("hybridgcd: sharded engine persists per-shard WALs; serving replicas is single-node only and stays disabled")
	}
	fmt.Printf("hybridgcd: listening on %s (role=%s gc=%s maxconns=%d)\n", n.Addr(), cfg.Role(), cfg.GC, cfg.Server.MaxConns)

	failed := make(chan error, 1)
	go func() { failed <- n.Wait() }()
	select {
	case s := <-sig:
		fmt.Printf("hybridgcd: %v — draining...\n", s)
	case err = <-failed:
	}
	n.Shutdown()
	if err != nil {
		fatal(err)
	}

	st := n.Stats()
	fmt.Printf("hybridgcd: served %d requests over %d connections (%d errors)\n",
		st.Requests, st.ConnsTotal, st.RequestErrors)
	fmt.Printf("hybridgcd: versions live=%d reclaimed=%d, cursors reaped=%d, latency p50=%s p99=%s\n",
		st.VersionsLive, st.VersionsReclaimed, st.CursorsReaped,
		time.Duration(st.LatP50), time.Duration(st.LatP99))
	switch st.ReplRole {
	case "primary":
		fmt.Printf("hybridgcd: replication sent=%d records, demotions=%d, replicas=%d\n",
			st.ReplRecordsSent, st.ReplDemotions, len(st.Replicas))
	case "replica":
		fmt.Printf("hybridgcd: replica applied %s after %d re-bootstraps\n", wal.LSN(st.ReplAppliedLSN), n.Rebootstraps())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridgcd:", err)
	profiling.Stop() // flush -cpuprofile/-memprofile even on the error path
	os.Exit(1)
}
