package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/gc"
	"hybridgc/internal/shard"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// ShardedOptions configures one sharded chaos run. The zero value selects a
// short smoke run; only Seed has no default worth relying on.
type ShardedOptions struct {
	// Seed fixes the victim shard, the isolation schedule and every worker's
	// update sequence.
	Seed int64
	// Duration is the length of the churn phases (<=0 selects 1.2s).
	Duration time.Duration
	// Shards is the cluster width (<=0 selects 3; the isolation probe needs
	// at least 2).
	Shards int
	// Workers is the number of concurrent update workers (<=0 selects 3).
	Workers int
	// Rows is the per-shard row count (<=0 selects 8).
	Rows int
	// HorizonBound is how long each horizon-advance wait may take before the
	// invariant fails (<=0 selects 3s).
	HorizonBound time.Duration
}

func (o *ShardedOptions) fill() {
	if o.Duration <= 0 {
		o.Duration = 1200 * time.Millisecond
	}
	if o.Shards <= 1 {
		o.Shards = 3
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.Rows <= 0 {
		o.Rows = 8
	}
	if o.HorizonBound <= 0 {
		o.HorizonBound = 3 * time.Second
	}
}

// RunSharded is the sharded analogue of Run: an in-process shard cluster runs
// a concurrent update workload with per-shard GC schedulers live while a
// seeded nemesis partitions one shard away — client traffic to it stops and a
// stranded open cursor keeps a snapshot pinned there, exactly what a client
// cut off mid-scan leaves behind. The invariants are the per-shard GC-horizon
// contract:
//
//  1. Independence — while the victim is partitioned (its horizon pinned at
//     the stranded snapshot), every other shard's GC horizon keeps advancing.
//     One shard's pin must never leak into another shard's version space.
//  2. Containment — the victim's horizon stays at or below the pinned
//     snapshot for the whole partition; reclamation there is suspended, not
//     corrupted.
//  3. Recovery — after the heal (cursor closed, traffic restored) the
//     victim's horizon passes the old pin within HorizonBound.
//  4. Integrity — no shard fail-stops, and every row is readable through the
//     routed path afterwards.
func RunSharded(opt ShardedOptions) (*Report, error) {
	opt.fill()
	rep := &Report{Seed: opt.Seed}

	cl, err := shard.Open(shard.Config{
		Shards: opt.Shards,
		Configure: func(int) core.Config {
			return core.Config{
				GC:                 gc.Periods{GT: 10 * time.Millisecond, TG: 30 * time.Millisecond, SI: 25 * time.Millisecond},
				LongLivedThreshold: 25 * time.Millisecond,
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	tid, err := cl.CreateTable("rows")
	if err != nil {
		return nil, err
	}
	total := opt.Rows * opt.Shards
	if err := cl.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		for i := 0; i < total; i++ {
			if _, err := tx.Insert(tid, []byte(fmt.Sprintf("r%d:0", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := 0; i < opt.Shards; i++ {
		cl.Shard(i).GC().Start()
		defer cl.Shard(i).GC().Stop()
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	victim := rng.Intn(opt.Shards)
	rep.Schedule = append(rep.Schedule, fmt.Sprintf("victim shard %d of %d", victim, opt.Shards))

	// Workers update random rows through pinned single-shard transactions —
	// the default interleave (block size 1) puts global RID r on shard
	// (r-1)%N. While the partition holds, traffic to the victim is dropped.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		isolated atomic.Bool
		acked    atomic.Int64
		seq      atomic.Int64
	)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(opt.Seed + int64(w)*7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := wrng.Intn(total)
				s := idx % opt.Shards
				if s == victim && isolated.Load() {
					continue
				}
				tx, err := cl.BeginShard(s, txn.StmtSI, tid)
				if err != nil {
					continue
				}
				img := []byte(fmt.Sprintf("r%d:%d", idx, seq.Add(1)))
				if err := tx.Update(tid, ts.RID(idx+1), img); err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() == nil {
					acked.Add(1)
				}
			}
		}(w)
	}
	finish := func() {
		close(stop)
		wg.Wait()
		rep.Acked = acked.Load()
	}

	// Warm-up churn, then partition the victim: a cursor opened just before
	// the cut is the stranded snapshot the partition leaves pinned.
	time.Sleep(opt.Duration / 4)
	cur, err := cl.Shard(victim).OpenCursor(tid)
	if err != nil {
		finish()
		return rep, err
	}
	pin := cur.SnapshotTS()
	isolated.Store(true)
	rep.Schedule = append(rep.Schedule, fmt.Sprintf("partition shard %d (pin ts %d)", victim, pin))

	// Invariant 1: every surviving shard's horizon advances past its value at
	// the moment of the partition.
	mark := make([]ts.CID, opt.Shards)
	for i := range mark {
		mark[i] = cl.Shard(i).Manager().View().Horizon()
	}
	reclaimedBefore := int64(0)
	for i := 0; i < opt.Shards; i++ {
		if i != victim {
			reclaimedBefore += cl.Shard(i).Stats().VersionsReclaimed
		}
	}
	time.Sleep(opt.Duration / 2)
	for i := 0; i < opt.Shards; i++ {
		if i == victim {
			continue
		}
		m := cl.Shard(i).Manager()
		if !waitUntil(opt.HorizonBound, func() bool { return m.View().Horizon() > mark[i] }) {
			rep.violatef("independence: shard %d horizon stuck at %d while shard %d is partitioned",
				i, m.View().Horizon(), victim)
		}
		rep.ConservationChecks++
	}
	reclaimedAfter := int64(0)
	for i := 0; i < opt.Shards; i++ {
		if i != victim {
			reclaimedAfter += cl.Shard(i).Stats().VersionsReclaimed
		}
	}
	if reclaimedAfter <= reclaimedBefore {
		rep.violatef("independence: surviving shards reclaimed nothing during the partition (%d -> %d)",
			reclaimedBefore, reclaimedAfter)
	}

	// Invariant 2: the stranded snapshot holds the victim's horizon.
	if h := cl.Shard(victim).Manager().View().Horizon(); h > pin {
		rep.violatef("containment: victim shard %d horizon %d advanced past its pinned snapshot %d", victim, h, pin)
	}

	// Heal: close the stranded cursor, restore traffic, and require the
	// victim's horizon to pass the old pin.
	cur.Close()
	isolated.Store(false)
	rep.Schedule = append(rep.Schedule, fmt.Sprintf("heal shard %d", victim))
	vm := cl.Shard(victim).Manager()
	start := time.Now()
	if !waitUntil(opt.HorizonBound, func() bool { return vm.View().Horizon() > pin }) {
		rep.violatef("recovery: victim shard %d horizon still at %d (pin %d) %s after the heal",
			victim, vm.View().Horizon(), pin, opt.HorizonBound)
	} else {
		// Floor at 1ms: zero is the "never measured" sentinel, and an
		// in-process heal can release the pin inside a millisecond.
		if rep.PinReleaseMS = time.Since(start).Milliseconds(); rep.PinReleaseMS == 0 {
			rep.PinReleaseMS = 1
		}
	}
	finish()

	// Invariant 4: clean engines and a fully readable table.
	for i := 0; i < opt.Shards; i++ {
		if failed, cause := cl.Shard(i).FailStop(); failed {
			rep.violatef("integrity: shard %d fail-stopped: %v", i, cause)
		}
	}
	tx := cl.Begin(txn.StmtSI)
	defer tx.Abort()
	for i := 0; i < total; i++ {
		if _, err := tx.Get(tid, ts.RID(i+1)); err != nil {
			rep.violatef("integrity: row %d unreadable after the run: %v", i+1, err)
			break
		}
		rep.ConservationChecks++
	}
	return rep, nil
}
