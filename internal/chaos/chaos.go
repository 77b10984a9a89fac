// Package chaos is a deterministic network-chaos harness for the full stack:
// a replicated cluster (persistent primary, read-only replicas, pooled
// clients) runs a concurrent bank-transfer workload while a seeded nemesis
// injects network faults through internal/netfault proxies — partitions
// (symmetric and asymmetric), connection-drop storms, refused dials, and
// per-I/O faults (kills, stalls, partial writes that tear frames).
//
// Throughout and after the chaos, four invariants are checked:
//
//  1. Conservation — every snapshot read of the accounts table, local or
//     remote, mid-chaos or after, sums to the initial total. Snapshot
//     isolation must hold under every fault the nemesis can produce.
//  2. Durability — after the network heals, every acknowledged commit is
//     present exactly once, and nothing not acknowledged (or classified
//     ambiguous) is present. A commit whose connection died mid-COMMIT is
//     "ambiguous": it may or may not have landed, but conservation and
//     single-application must hold either way.
//  3. Convergence — every replica reaches the primary's LSN after the heal
//     and its full state (accounts, ledger, commit timestamp) is identical
//     to the primary's.
//  4. Replica reads stay correct, and a dead replica is demoted — a cursor
//     opened on a replica before the weather, on the seeded bank, is read
//     after the heal: its own engine's collector kept its versions, so its
//     balances sum to the bank's total and equal the primary's state at its
//     snapshot. Then that replica is partitioned away, and the primary must
//     demote it within HorizonBound (stream teardown, then the staleness
//     sweeper) and drop its segment floor: a dead peer cannot hold the log
//     hostage.
//
// Determinism is at the schedule level: one seed fixes the nemesis schedule,
// the fault-injector decision stream, and each worker's transfer sequence.
// Goroutine interleavings still vary run to run — deliberately: the
// invariants must hold for every interleaving of a seeded schedule, and a
// failing seed reproduces the same weather for debugging.
package chaos

import (
	"fmt"
	"time"
)

// Options configures one chaos run. The zero value selects a short smoke
// run; only Seed has no default worth relying on.
type Options struct {
	// Seed fixes the nemesis schedule, injector stream and workload choices.
	Seed int64
	// Duration is the length of the chaos phase (<=0 selects 2s). Healing,
	// convergence and the liveness probe run after it.
	Duration time.Duration
	// Workers is the number of concurrent transfer workers (<=0 selects 4).
	Workers int
	// Accounts is the size of the bank (<=0 selects 8).
	Accounts int
	// Replicas is the number of streaming replicas (<=0 selects 2;
	// invariant 4 needs at least 1).
	Replicas int
	// HorizonBound is how long a dead replica may go undemoted before
	// invariant 4 fails (<=0 selects 3s).
	HorizonBound time.Duration
}

func (o *Options) fill() {
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Accounts <= 0 {
		o.Accounts = 8
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.HorizonBound <= 0 {
		o.HorizonBound = 3 * time.Second
	}
}

// Report is the outcome of one run. A run passes when Violations is empty;
// everything else is observability.
type Report struct {
	Seed int64

	// Workload outcome counts.
	Acked     int64 // transfers whose COMMIT was acknowledged
	Ambiguous int64 // transfers whose COMMIT outcome is unknown
	GaveUp    int64 // transfers abandoned after transient-retry exhaustion

	// Invariant activity.
	ConservationChecks int64 // snapshot sums verified (local + remote)
	// ReleaseMS is the latency the last liveness check clocks: a dead
	// replica's demotion here, the stranded shard's horizon after the heal
	// in RunSharded.
	ReleaseMS int64

	// Fault and recovery activity, to show the schedule actually bit.
	Redials       int64 // client background redial attempts
	Reconnects    int64 // replica stream reconnects
	Rebootstraps  int64 // replica full re-bootstraps after demotion
	Demotions     int64 // primary-side demotions
	InjectedKills int64 // injector connection kills on the client path

	// Schedule is the executed nemesis schedule, one line per step —
	// identical across runs with the same seed.
	Schedule []string

	// Violations are invariant failures. Each names the seed, so one log
	// line reproduces the run.
	Violations []string
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// violatef records an invariant violation, stamped with the seed so the
// failure alone is enough to reproduce the run.
func (r *Report) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf("seed %d: ", r.Seed)+fmt.Sprintf(format, args...))
}

// Summary renders the report as a compact human-readable block.
func (r *Report) Summary() string {
	s := fmt.Sprintf(
		"seed %d: acked=%d ambiguous=%d gaveup=%d checks=%d redials=%d reconnects=%d rebootstraps=%d demotions=%d kills=%d release=%dms",
		r.Seed, r.Acked, r.Ambiguous, r.GaveUp, r.ConservationChecks,
		r.Redials, r.Reconnects, r.Rebootstraps, r.Demotions, r.InjectedKills, r.ReleaseMS)
	for _, v := range r.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}
