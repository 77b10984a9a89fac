package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestShardedPartitionSeed runs one seeded sharded scenario: a partition
// isolates one shard (stranding an open snapshot there) and the invariant
// checkers must prove the other shards' GC horizons keep advancing, the
// victim's horizon stays contained at the pin, and the heal releases it.
func TestShardedPartitionSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	rep, err := RunSharded(ShardedOptions{Seed: 1, Duration: 800 * time.Millisecond})
	if err != nil {
		t.Fatalf("sharded chaos run failed to start: %v", err)
	}
	t.Log(rep.Summary())
	for _, s := range rep.Schedule {
		t.Logf("schedule: %s", s)
	}
	if !rep.Passed() {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Acked == 0 {
		t.Fatal("no update was ever acknowledged — the workload never ran")
	}
	if rep.ReleaseMS == 0 && rep.Acked > 0 {
		t.Fatal("the heal never measured a pin release")
	}
}

// TestShardedVictimDeterministic: the victim choice and schedule shape are a
// pure function of the seed, so a failing run reproduces from its seed alone.
func TestShardedVictimDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	opt := ShardedOptions{Seed: 7, Duration: 400 * time.Millisecond}
	a, err := RunSharded(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Schedule) == 0 || a.Schedule[0] != b.Schedule[0] {
		t.Fatalf("victim selection not seed-deterministic: %v vs %v", a.Schedule, b.Schedule)
	}
}
