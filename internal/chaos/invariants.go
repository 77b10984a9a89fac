package chaos

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/repl"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wire"
)

// Run executes one full chaos scenario: build the cluster, open the replica
// probe cursor, run the seeded nemesis against the live workload, heal, then
// check the probe's reads, convergence, demotion and durability. The returned
// Report carries every violation; an error is an environmental failure
// (couldn't even build the cluster), not an invariant failure.
func Run(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{Seed: opt.Seed}

	c, err := startCluster(opt)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// Invariant 4's reader opens on the seeded bank, before the weather.
	readProbe := holdProbe(c, rep)

	// Live phase: workload + conservation checkers.
	b := startBank(c, opt, rep)
	runNemesis(c, drawSchedule(opt), rep)
	c.healAll()
	b.halt()
	readProbe()

	if n := b.unexpected.Load(); n > 0 {
		last, _ := b.lastErr.Load().(string)
		rep.violatef("workload: %d non-transient unexpected errors (last: %s)", n, last)
	}

	// Invariant 3: every replica converges to the primary's state.
	checkConvergence(c, rep)

	// Invariant 4's second half: a dead replica is demoted.
	checkDemotion(c, opt, rep)

	// Invariant 2: acknowledged commits survived, exactly once, and nothing
	// unacknowledged (beyond the ambiguous set) appeared.
	acked, ambiguous := b.sets()
	checkNoLostCommits(c, acked, ambiguous, rep)

	// Final conservation check on the healed, quiesced primary.
	if sum, n, err := sumAccountsLocal(c.db, c.accounts); err != nil {
		rep.violatef("final conservation scan failed: %v", err)
	} else if n != len(c.acctRIDs) || sum != c.total {
		rep.violatef("final conservation: %d accounts sum %d, want %d accounts sum %d",
			n, sum, len(c.acctRIDs), c.total)
	}

	// Recovery telemetry, to show the schedule actually exercised the paths.
	rep.Redials = c.cl.Redials()
	rep.InjectedKills = c.clientInj.Kills()
	rep.Demotions = c.primary.Stats().ReplDemotions
	for _, n := range c.replicas {
		rep.Reconnects += n.Stats().ReplReconnects
		rep.Rebootstraps += n.Rebootstraps()
	}
	return rep, nil
}

// stateDump is a comparable snapshot of one engine's bank state.
type stateDump struct {
	accounts map[ts.RID]int64
	ledger   []string // sorted "id:amount"
}

func dumpState(db *core.DB, accounts, ledger ts.TableID) (*stateDump, error) {
	d := &stateDump{accounts: make(map[ts.RID]int64)}
	err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		d.accounts = make(map[ts.RID]int64)
		d.ledger = d.ledger[:0]
		if err := tx.Scan(accounts, func(rid ts.RID, img []byte) bool {
			v, _ := parseBalance(img)
			d.accounts[rid] = v
			return true
		}); err != nil {
			return err
		}
		return tx.Scan(ledger, func(_ ts.RID, img []byte) bool {
			d.ledger = append(d.ledger, string(img))
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(d.ledger)
	return d, nil
}

func (d *stateDump) diff(o *stateDump) string {
	if len(d.accounts) != len(o.accounts) {
		return fmt.Sprintf("account count %d != %d", len(o.accounts), len(d.accounts))
	}
	for rid, v := range d.accounts {
		if ov, ok := o.accounts[rid]; !ok || ov != v {
			return fmt.Sprintf("account %v: %d != %d", rid, ov, v)
		}
	}
	if len(d.ledger) != len(o.ledger) {
		return fmt.Sprintf("ledger count %d != %d", len(o.ledger), len(d.ledger))
	}
	for i := range d.ledger {
		if d.ledger[i] != o.ledger[i] {
			return fmt.Sprintf("ledger[%d]: %q != %q", i, o.ledger[i], d.ledger[i])
		}
	}
	return ""
}

// checkConvergence waits for every replica to reach the primary's LSN after
// the heal, then compares full bank state.
func checkConvergence(c *cluster, rep *Report) {
	target := c.db.WAL().NextLSN()
	primary, err := dumpState(c.db, c.accounts, c.ledger)
	if err != nil {
		rep.violatef("convergence: primary state dump failed: %v", err)
		return
	}
	for i, n := range c.replicas {
		n.View(func(eng engine.Engine, r *repl.Replica) {
			if err := r.WaitLSN(target, 10*time.Second); err != nil {
				rep.violatef("convergence: replica %d never reached %v after heal: %v (rebootstraps=%d)",
					i, target, err, n.Rebootstraps())
				return
			}
			db := eng.Shard(0)
			acc, led := db.TableID("accounts"), db.TableID("ledger")
			if acc == 0 || led == 0 {
				rep.violatef("convergence: replica %d is missing the bank tables after catch-up", i)
				return
			}
			dump, err := dumpState(db, acc, led)
			if err != nil {
				rep.violatef("convergence: replica %d state dump failed: %v", i, err)
				return
			}
			if d := primary.diff(dump); d != "" {
				rep.violatef("convergence: replica %d diverged from primary: %s", i, d)
			}
		})
	}
}

// holdProbe opens invariant 4's reader: a cursor on replica 0's accounts
// table, on the seeded bank before any transfer, whose snapshot is the
// primary's commit timestamp — so the primary's state at it is the state
// dumped here. The cursor is held inside the node's View (which also holds
// off a re-bootstrap of that replica) through the weather, while the
// workload rewrites every balance and both engines collect. The returned
// function reads it in full after the heal: a replica snapshot is kept by
// the replica's own collector, so its balances must still be exactly the
// primary's at its snapshot, and sum to the bank's total.
func holdProbe(c *cluster, rep *Report) (read func()) {
	if len(c.replicas) == 0 {
		return func() {}
	}
	var want []string
	if err := c.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		want = want[:0]
		return tx.Scan(c.accounts, func(_ ts.RID, img []byte) bool {
			want = append(want, string(img))
			return true
		})
	}); err != nil {
		rep.violatef("probe: primary scan failed: %v", err)
		return func() {}
	}
	at, target := c.db.Manager().CurrentTS(), c.db.WAL().NextLSN()
	opened, release, done := make(chan bool), make(chan struct{}), make(chan struct{})
	go c.replicas[0].View(func(eng engine.Engine, r *repl.Replica) {
		defer close(done)
		db := eng.Shard(0)
		if err := r.WaitLSN(target, 10*time.Second); err != nil {
			rep.violatef("probe: replica 0 never caught up with the seeded bank: %v", err)
			opened <- false
			return
		}
		cur, err := db.OpenCursor(db.TableID("accounts"))
		if err != nil {
			rep.violatef("probe: replica 0 cursor open failed: %v", err)
			opened <- false
			return
		}
		defer cur.Close()
		if cur.SnapshotTS() != at {
			rep.violatef("probe: replica 0 cursor at %v, the seeded bank at %v — probe is not valid", cur.SnapshotTS(), at)
			opened <- false
			return
		}
		opened <- true
		<-release
		var got []string
		var sum int64
		for !cur.Exhausted() {
			rows, _, err := cur.Fetch(3)
			if err != nil {
				rep.violatef("probe: replica cursor at %v failed after the heal: %v", at, err)
				return
			}
			for _, img := range rows {
				v, _ := parseBalance(img)
				sum += v
				got = append(got, string(img))
			}
		}
		rep.ConservationChecks++
		if sum != c.total || !slices.Equal(got, want) {
			rep.violatef("probe: replica cursor at %v read %v (sum %d) after the heal, the primary had %v (sum %d)",
				at, got, sum, want, c.total)
		}
	})
	if !<-opened {
		<-done
		return func() {}
	}
	return func() {
		close(release)
		<-done
	}
}

// checkDemotion is invariant 4's second half: replica 0 is partitioned away
// both ways, and the primary must demote it within HorizonBound — stream
// teardown, then the staleness sweeper — dropping its segment floor, so a
// dead peer cannot hold the primary's log hostage. Report.ReleaseMS clocks
// it.
func checkDemotion(c *cluster, opt Options, rep *Report) {
	if len(c.replicas) == 0 {
		return
	}
	n := c.replicas[0]
	ours := func() wire.ReplicaStat {
		for _, r := range c.primary.Stats().Replicas {
			if r.ID == n.id {
				return r
			}
		}
		return wire.ReplicaStat{}
	}
	// A floor shows as a floor segment or, for a bootstrap's floor of 0, as
	// a lag behind the active segment (segments count from 1).
	holdsFloor := func(r wire.ReplicaStat) bool { return r.FloorSegment != 0 || r.SegmentLag != 0 }

	start := time.Now()
	n.proxy.SetPartition(true, true)
	defer n.proxy.SetPartition(false, false)
	if !waitUntil(opt.HorizonBound, func() bool {
		r := ours()
		return r.Demoted || r.ID == "" // no entry: detached entirely, floor gone with it
	}) {
		rep.violatef("demotion: partitioned replica %s was never demoted within %s", n.id, opt.HorizonBound)
		return
	}
	if r := ours(); r.ID != "" && holdsFloor(r) {
		rep.violatef("demotion: demoted replica %s still holds its segment floor (segment %d, lag %d)",
			n.id, r.FloorSegment, r.SegmentLag)
		return
	}
	// Floor at 1ms: zero is the "never measured" sentinel.
	rep.ReleaseMS = max(1, time.Since(start).Milliseconds())
}

// checkNoLostCommits is invariant 2: after the heal, the primary's ledger
// contains every acknowledged transfer exactly once, and nothing that was
// neither acknowledged nor ambiguous.
func checkNoLostCommits(c *cluster, acked, ambiguous map[string]struct{}, rep *Report) {
	entries, dups, err := ledgerEntries(c.db, c.ledger)
	if err != nil {
		rep.violatef("durability: ledger scan failed: %v", err)
		return
	}
	for _, id := range dups {
		rep.violatef("durability: ledger entry %q applied more than once", id)
	}
	lost := 0
	for id := range acked {
		if _, ok := entries[id]; !ok {
			lost++
			if lost <= 3 {
				rep.violatef("durability: acknowledged commit %q is missing after heal", id)
			}
		}
	}
	if lost > 3 {
		rep.violatef("durability: ... and %d more acknowledged commits missing", lost-3)
	}
	for id := range entries {
		if isProbeEntry(id) {
			continue
		}
		if _, ok := acked[id]; ok {
			continue
		}
		if _, ok := ambiguous[id]; ok {
			continue
		}
		rep.violatef("durability: ledger entry %q was never acknowledged or ambiguous", id)
	}
}

func isProbeEntry(id string) bool {
	return len(id) > 6 && id[:6] == "probe-"
}

// waitUntil polls cond every 5ms until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
