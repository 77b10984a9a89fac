// Command chaos runs the deterministic network-chaos harness from
// internal/chaos against an in-process replicated cluster: a persistent
// primary, streaming replicas and a pooled client all wired through seeded
// fault-injecting proxies. Each seed produces one fixed nemesis schedule —
// partitions, connection-drop storms, refused dials, torn frames — while a
// concurrent bank workload runs, and the four invariants (snapshot
// conservation, no lost acked commits, replica convergence, correct replica
// reads and demotion of a dead replica) are checked during and after the
// weather.
//
// A violation prints the seed that produced it; re-running with -seed <n>
// reproduces the same schedule.
//
// Usage:
//
//	chaos -seeds 1,2,3,4,5 -duration 1500ms
//	chaos -seed 7 -duration 10s -workers 8 -replicas 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hybridgc/internal/chaos"
)

func main() {
	var (
		seed     = flag.Int64("seed", 0, "run exactly one seed (overrides -seeds)")
		seeds    = flag.String("seeds", "1,2,3,4,5", "comma-separated seed list")
		duration = flag.Duration("duration", 2*time.Second, "length of the chaos phase per seed")
		workers  = flag.Int("workers", 4, "concurrent transfer workers")
		accounts = flag.Int("accounts", 8, "bank accounts")
		replicas = flag.Int("replicas", 2, "streaming replicas")
		bound    = flag.Duration("horizon-bound", 3*time.Second, "max time a dead replica may go undemoted")
		verbose  = flag.Bool("v", false, "print the executed nemesis schedule")
	)
	flag.Parse()

	var list []int64
	if *seed != 0 {
		list = []int64{*seed}
	} else {
		for _, f := range strings.Split(*seeds, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: bad seed %q: %v\n", f, err)
				os.Exit(2)
			}
			list = append(list, n)
		}
	}

	failed := 0
	for _, s := range list {
		rep, err := chaos.Run(chaos.Options{
			Seed: s, Duration: *duration,
			Workers: *workers, Accounts: *accounts, Replicas: *replicas,
			HorizonBound: *bound,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: seed %d failed to start: %v\n", s, err)
			os.Exit(1)
		}
		fmt.Println(rep.Summary())
		if *verbose {
			for _, step := range rep.Schedule {
				fmt.Println("  nemesis:", step)
			}
		}
		if !rep.Passed() {
			failed++
			fmt.Printf("  reproduce with: go run ./cmd/chaos -seed %d -duration %s\n", s, *duration)
		}
	}
	if failed > 0 {
		fmt.Printf("chaos: %d of %d seeds FAILED\n", failed, len(list))
		os.Exit(1)
	}
	fmt.Printf("chaos: all %d seeds passed\n", len(list))
}
