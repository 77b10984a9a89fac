package chaos

// Read-routing nemesis: a replicated cluster serves a bank workload through
// the read/write-splitting ReadPool while the nemesis partitions each
// replica's serving path in turn. The replication streams stay healthy — the
// weather here is aimed at the read path, and the invariants are the pool's
// promises:
//
//  1. No lost or torn write is ever observed: every Session read of the
//     latest acknowledged marker row sees it with the right value, and every
//     Session SUM over the bank equals the seeded total (transfers are
//     atomic under snapshot isolation no matter which endpoint serves the
//     read).
//  2. Reads keep succeeding while at least one endpoint is healthy: the
//     primary is never partitioned, so every pooled read must ultimately
//     succeed — a partitioned replica is quarantined and failed over, never
//     surfaced to the caller.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/netfault"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
)

// ReadRouteOptions configures one read-routing chaos run. The zero value
// (plus a seed) selects a short smoke run.
type ReadRouteOptions struct {
	// Seed fixes the transfer sequence. The partition schedule itself is
	// deterministic round-robin and does not consume randomness.
	Seed int64
	// Replicas is the number of serving read replicas (<=0 selects 2).
	Replicas int
	// Rounds is how many partition rounds run; each round partitions one
	// replica, round-robin, so every replica is hit at least once when
	// Rounds >= Replicas (<=0 selects 2*Replicas).
	Rounds int
	// Hold / Calm are the partition and recovery windows per round
	// (<=0 select 400ms / 200ms).
	Hold time.Duration
	Calm time.Duration
	// Accounts is the bank size (<=0 selects 8).
	Accounts int
	// Readers is the number of concurrent pooled readers (<=0 selects 2).
	Readers int
}

func (o *ReadRouteOptions) fill() {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Rounds <= 0 {
		o.Rounds = 2 * o.Replicas
	}
	if o.Hold <= 0 {
		o.Hold = 400 * time.Millisecond
	}
	if o.Calm <= 0 {
		o.Calm = 200 * time.Millisecond
	}
	if o.Accounts <= 0 {
		o.Accounts = 8
	}
	if o.Readers <= 0 {
		o.Readers = 2
	}
}

// ReadRouteReport is the outcome of one run; it passes when Violations is
// empty.
type ReadRouteReport struct {
	Seed int64

	Transfers int64 // acknowledged bank transfers
	Markers   int64 // acknowledged marker writes
	SumChecks int64 // conservation sums verified through the pool
	RYWChecks int64 // marker visibility checks through the pool

	// ReadsDuringFault counts pooled reads that succeeded while a partition
	// was being held — the availability evidence.
	ReadsDuringFault int64

	Pool       client.PoolCounters
	Schedule   []string
	Violations []string
}

// Passed reports whether every invariant held.
func (r *ReadRouteReport) Passed() bool { return len(r.Violations) == 0 }

func (r *ReadRouteReport) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf("seed %d: ", r.Seed)+fmt.Sprintf(format, args...))
}

// Summary renders the report as a compact human-readable block.
func (r *ReadRouteReport) Summary() string {
	s := fmt.Sprintf(
		"seed %d: transfers=%d markers=%d sums=%d ryw=%d during-fault=%d replica=%d primary=%d bounces=%d failovers=%d",
		r.Seed, r.Transfers, r.Markers, r.SumChecks, r.RYWChecks, r.ReadsDuringFault,
		r.Pool.ReplicaReads, r.Pool.PrimaryReads, r.Pool.Bounces, r.Pool.Failovers)
	for _, v := range r.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}

// RunReadRoute executes one read-routing chaos run.
func RunReadRoute(opt ReadRouteOptions) (*ReadRouteReport, error) {
	opt.fill()
	rep := &ReadRouteReport{Seed: opt.Seed}

	dir, err := os.MkdirTemp("", "readroute-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Primary: streams stay healthy here, so it never demotes.
	primary, err := startPrimary(dir, 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer primary.Shutdown()

	// Replicas: direct stream in, proxied serving path out.
	var proxies []*netfault.Proxy
	var poolReplicas []string
	for i := 0; i < opt.Replicas; i++ {
		n, err := node.Start(node.Config{
			GC:        gc.ModeHG,
			TokenWait: 500 * time.Millisecond,
			Server:    server.Config{Addr: "127.0.0.1:0", WriteTimeout: clientRequestTO},
			Replica: repl.ReplicaConfig{
				Upstream:      primary.Addr(),
				ReplicaID:     fmt.Sprintf("rr%d", i),
				ReportEvery:   reportEvery,
				StallTimeout:  30 * time.Second,
				ReconnectBase: 10 * time.Millisecond,
				ReconnectMax:  200 * time.Millisecond,
			},
		})
		if err != nil {
			return nil, err
		}
		defer n.Shutdown()
		p, err := netfault.NewProxy(n.Addr(), nil)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		proxies = append(proxies, p)
		poolReplicas = append(poolReplicas, p.Addr())
	}

	pool, err := client.NewReadPool(client.PoolConfig{
		Primary:  primary.Addr(),
		Replicas: poolReplicas,
		Client: client.Config{
			MaxConns:       4,
			DialTimeout:    clientDialTO,
			RequestTimeout: 300 * time.Millisecond,
			RedialBase:     10 * time.Millisecond,
			RedialMax:      150 * time.Millisecond,
		},
		HeartbeatInterval: 20 * time.Millisecond,
		QuarantineBase:    20 * time.Millisecond,
		QuarantineMax:     250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	// Seed the bank and the marker ledger through the pool's write path.
	const initial = 100
	total := int64(opt.Accounts) * initial
	if _, err := pool.Exec("CREATE TABLE rr_bank (id INT, bal INT)"); err != nil {
		return nil, err
	}
	if _, err := pool.Exec("CREATE TABLE rr_marks (id INT, v INT)"); err != nil {
		return nil, err
	}
	for i := 0; i < opt.Accounts; i++ {
		if _, err := pool.Exec(fmt.Sprintf("INSERT INTO rr_bank VALUES (%d, %d)", i, initial)); err != nil {
			return nil, err
		}
	}

	var (
		stop        = make(chan struct{})
		wg          sync.WaitGroup
		faultActive atomic.Bool
		acked       atomic.Int64 // highest acknowledged marker id
		mu          sync.Mutex   // guards rep.* counters and violations
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Transfer writer: read-modify-write pairs of balances inside one
	// transaction on the primary, folding each commit token back into the
	// pool so Session readers are gated behind it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(opt.Seed ^ 0x72656164))
		readBal := func(tx *client.Tx, id int) (int64, error) {
			res, err := tx.Exec(fmt.Sprintf("SELECT bal FROM rr_bank WHERE id = %d", id))
			if err != nil {
				return 0, err
			}
			if len(res.Rows) != 1 {
				return 0, fmt.Errorf("account %d: %d rows", id, len(res.Rows))
			}
			return res.Rows[0][0].I, nil
		}
		for !stopped() {
			a := rng.Intn(opt.Accounts)
			b := (a + 1 + rng.Intn(opt.Accounts-1)) % opt.Accounts
			amt := int64(1 + rng.Intn(10))
			pr, err := pool.Primary()
			if err != nil {
				continue
			}
			tx, err := pr.Begin(false)
			if err != nil {
				continue
			}
			balA, errA := readBal(tx, a)
			balB, errB := readBal(tx, b)
			if errA != nil || errB != nil {
				tx.Abort()
				continue
			}
			if _, err := tx.Exec(fmt.Sprintf("UPDATE rr_bank SET bal = %d WHERE id = %d", balA-amt, a)); err != nil {
				tx.Abort()
				continue
			}
			if _, err := tx.Exec(fmt.Sprintf("UPDATE rr_bank SET bal = %d WHERE id = %d", balB+amt, b)); err != nil {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				continue
			}
			pool.ObserveToken(tx.CommitLSN())
			mu.Lock()
			rep.Transfers++
			mu.Unlock()
		}
	}()

	// Marker writer: acked is the highest id whose INSERT was acknowledged,
	// so a Session read of it must always hit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); !stopped(); i++ {
			if _, err := pool.Exec(fmt.Sprintf("INSERT INTO rr_marks VALUES (%d, %d)", i, i*13)); err != nil {
				if core.IsTransient(err) {
					continue
				}
				return
			}
			acked.Store(i)
			mu.Lock()
			rep.Markers++
			mu.Unlock()
		}
	}()

	// Readers: alternate conservation sums and marker-visibility reads, all
	// Session consistency through the pool. Any read error at all is an
	// availability violation — the primary is never partitioned, so the pool
	// always has a healthy endpoint to fail over to.
	for r := 0; r < opt.Readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				during := faultActive.Load()
				if i%2 == 0 {
					res, err := pool.Read("SELECT SUM(bal) FROM rr_bank", client.Session)
					mu.Lock()
					if err != nil {
						rep.violatef("conservation read failed under partition: %v", err)
					} else {
						rep.SumChecks++
						if len(res.Rows) != 1 || res.Rows[0][0].I != total {
							rep.violatef("torn transfer observed: SUM(bal)=%v, want %d", res.Rows, total)
						} else if during {
							rep.ReadsDuringFault++
						}
					}
					mu.Unlock()
				} else if id := acked.Load(); id > 0 {
					res, err := pool.Read(fmt.Sprintf("SELECT v FROM rr_marks WHERE id = %d", id), client.Session)
					mu.Lock()
					if err != nil {
						rep.violatef("marker read failed under partition: %v", err)
					} else {
						rep.RYWChecks++
						if len(res.Rows) != 1 || res.Rows[0][0].I != id*13 {
							rep.violatef("acked marker %d lost: %v", id, res.Rows)
						} else if during {
							rep.ReadsDuringFault++
						}
					}
					mu.Unlock()
				}
			}
		}()
	}

	// Nemesis: partition each replica's serving path in turn. DropLinks
	// first so in-flight reads fail immediately; the held partition then
	// makes every new exchange time out until the heal.
	for round := 0; round < opt.Rounds; round++ {
		victim := round % opt.Replicas
		p := proxies[victim]
		faultActive.Store(true)
		p.SetPartition(true, true)
		p.DropLinks()
		rep.Schedule = append(rep.Schedule, fmt.Sprintf("replica %d serve-partition for %s", victim, opt.Hold))
		time.Sleep(opt.Hold)
		p.SetPartition(false, false)
		faultActive.Store(false)
		time.Sleep(opt.Calm)
	}

	close(stop)
	wg.Wait()

	// Post-chaos: everything healed, one Strong sum must still conserve.
	res, err := pool.Read("SELECT SUM(bal) FROM rr_bank", client.Strong)
	if err != nil {
		rep.violatef("post-heal strong read failed: %v", err)
	} else if len(res.Rows) != 1 || res.Rows[0][0].I != total {
		rep.violatef("post-heal SUM(bal)=%v, want %d", res.Rows, total)
	}

	rep.Pool = pool.Counters()
	if rep.Transfers == 0 {
		rep.violatef("no transfer was ever acknowledged — the workload never ran")
	}
	if rep.Markers == 0 {
		rep.violatef("no marker write was ever acknowledged")
	}
	if rep.SumChecks == 0 || rep.RYWChecks == 0 {
		rep.violatef("invariants were never checked (sums=%d ryw=%d)", rep.SumChecks, rep.RYWChecks)
	}
	if rep.ReadsDuringFault == 0 {
		rep.violatef("no read succeeded while a partition was held — availability unproven")
	}
	if rep.Pool.ReplicaReads == 0 {
		rep.violatef("no read was ever served by a replica — the pool never scaled out")
	}
	return rep, nil
}
