package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/repl"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wire"
)

// Run executes one full chaos scenario: build the cluster, run the seeded
// nemesis against the live workload, heal, then check convergence, durability
// and GC-horizon liveness. The returned Report carries every violation; an
// error is an environmental failure (couldn't even build the cluster), not an
// invariant failure.
func Run(opt Options) (*Report, error) {
	opt.fill()
	rep := &Report{Seed: opt.Seed}

	c, err := startCluster(opt)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// Live phase: workload + conservation checkers + snapshot holders on the
	// replicas (their reported snapshots join the cluster-wide GC horizon,
	// so the nemesis gets to break streams that are actively pinning it).
	b := startBank(c, opt, rep)
	holders := startSnapshotHolders(c)
	runNemesis(c, drawSchedule(opt), rep)
	c.healAll()
	b.halt()

	if n := b.unexpected.Load(); n > 0 {
		last, _ := b.lastErr.Load().(string)
		rep.violatef("workload: %d non-transient unexpected errors (last: %s)", n, last)
	}

	// Invariant 3: every replica converges to the primary's state.
	checkConvergence(c, rep)

	// Invariant 4 needs the probe cursor to be the only pin, so stop the
	// background holders before opening it.
	holders.halt()
	checkHorizonLiveness(c, opt, rep)

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

// holderSet keeps short-lived snapshot cursors open on each replica during
// the chaos phase, so replica-reported snapshots are pinning the primary's
// horizon while the nemesis cuts their streams.
type holderSet struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startSnapshotHolders(c *cluster) *holderSet {
	h := &holderSet{stop: make(chan struct{})}
	for _, n := range c.replicas {
		h.wg.Add(1)
		go func(n *replicaNode) {
			defer h.wg.Done()
			for {
				select {
				case <-h.stop:
					return
				case <-time.After(40 * time.Millisecond):
				}
				n.View(func(eng engine.Engine, _ *repl.Replica) {
					db := eng.Shard(0)
					tid := db.TableID("accounts")
					if tid == 0 {
						return // mid-bootstrap; nothing to pin yet
					}
					cur, err := db.OpenCursor(tid)
					if err != nil {
						return
					}
					select {
					case <-h.stop:
					case <-time.After(80 * time.Millisecond):
					}
					cur.Close()
				})
			}
		}(n)
	}
	return h
}

func (h *holderSet) halt() {
	close(h.stop)
	h.wg.Wait()
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

// checkHorizonLiveness is invariant 4: a replica holding an open snapshot is
// partitioned away; its pin on the primary's GC horizon must be released
// within HorizonBound (stream teardown or staleness demotion), so a dead
// peer cannot hold the version space hostage.
func checkHorizonLiveness(c *cluster, opt Options, rep *Report) {
	if len(c.replicas) == 0 {
		return
	}
	n := c.replicas[0]
	m := c.db.Manager()
	n.View(func(eng engine.Engine, _ *repl.Replica) {
		db := eng.Shard(0)
		tid := db.TableID("accounts")
		if tid == 0 {
			rep.violatef("horizon: replica 0 has no accounts table; cannot probe")
			return
		}
		cur, err := db.OpenCursor(tid)
		if err != nil {
			rep.violatef("horizon: replica 0 cursor open failed: %v", err)
			return
		}
		defer cur.Close()
		pin := cur.SnapshotTS()

		// Make the primary's clock move past the pin, then wait for the pin
		// to be reported upstream and take effect on the global horizon.
		for i := 0; i < 3; i++ {
			if _, err := insertLocal(c.db, c.ledger, []byte(fmt.Sprintf("probe-%d:0", i))); err != nil {
				rep.violatef("horizon: probe insert failed: %v", err)
				return
			}
		}
		// The pin must be this replica's own: another replica's expiring pin
		// (the convergence check's cursor) can hold the horizon down as well,
		// and partitioning before ours is reported would clock that one.
		ours := func() wire.ReplicaStat {
			for _, r := range c.primary.Stats().Replicas {
				if r.ID == n.id {
					return r
				}
			}
			return wire.ReplicaStat{}
		}
		if !waitUntil(2*time.Second, func() bool { return ours().PinnedSTS == pin && m.View().Horizon() <= pin }) {
			rep.violatef("horizon: replica snapshot %v never pinned the primary (horizon %v) — probe is not valid",
				pin, m.View().Horizon())
			return
		}

		// Partition the pinning replica both ways and clock the release.
		start := time.Now()
		n.proxy.SetPartition(true, true)
		defer n.proxy.SetPartition(false, false)
		if !waitUntil(opt.HorizonBound, func() bool { return m.View().Horizon() > pin }) {
			rep.violatef("horizon: dead replica still pins GC horizon at %v after %s (horizon %v)",
				pin, opt.HorizonBound, m.View().Horizon())
			return
		}
		rep.PinReleaseMS = time.Since(start).Milliseconds()

		// The staleness sweeper must also demote the silent replica so its
		// segment floor stops blocking WAL pruning.
		if !waitUntil(opt.HorizonBound, func() bool {
			r := ours()
			return r.Demoted || r.ID == "" // no entry: detached entirely, floor gone with it
		}) {
			rep.violatef("horizon: partitioned replica %s was never demoted within %s", n.id, opt.HorizonBound)
		}
	})
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
