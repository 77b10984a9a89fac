package bench

// Ext3: read scale-out. One persistent primary plus 0..3 streaming replicas,
// all served on loopback, with a ReadPool splitting the workload — writes to
// the primary, Session reads across the replica set behind the consistency
// token. The figure is pooled read throughput per replica count.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/metrics"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/workload"
)

type ext3Result struct {
	qps      metrics.Series // pooled reads/s over time
	reads    int64
	writes   int64
	counters client.PoolCounters
}

// ext3Leg measures pooled read throughput against nReplicas read replicas.
func (s *Suite) ext3Leg(nReplicas int) (*ext3Result, error) {
	dir, err := os.MkdirTemp("", "ext3-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Nodes as hybridgcd runs them: the daemon's collector periods, a
	// persistent primary serving streams, token-gated replicas.
	primary, err := node.Start(node.Config{
		GC:     workload.ModeHG,
		Data:   dir,
		Server: server.Config{Addr: "127.0.0.1:0"},
		Source: repl.SourceConfig{HeartbeatEvery: 20 * time.Millisecond, StaleAfter: 30 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	defer primary.Shutdown()

	var addrs []string
	for i := 0; i < nReplicas; i++ {
		r, err := node.Start(node.Config{
			GC:        workload.ModeHG,
			TokenWait: 500 * time.Millisecond,
			Server:    server.Config{Addr: "127.0.0.1:0"},
			Replica: repl.ReplicaConfig{
				Upstream:      primary.Addr(),
				ReplicaID:     fmt.Sprintf("ext3-r%d", i),
				ReportEvery:   20 * time.Millisecond,
				ReconnectBase: 10 * time.Millisecond,
				StallTimeout:  30 * time.Second,
			},
		})
		if err != nil {
			return nil, err
		}
		defer r.Shutdown()
		addrs = append(addrs, r.Addr())
	}

	pool, err := client.NewReadPool(client.PoolConfig{
		Primary:           primary.Addr(),
		Replicas:          addrs,
		Client:            client.Config{MaxConns: 8},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	rows := 256
	if s.cfg.Quick {
		rows = 64
	}
	if _, err := pool.Exec("CREATE TABLE ext3_kv (id INT, v INT)"); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if _, err := pool.Exec(fmt.Sprintf("INSERT INTO ext3_kv VALUES (%d, %d)", i, i)); err != nil {
			return nil, err
		}
	}
	var (
		reads  atomic.Int64
		writes atomic.Int64
		stop   = make(chan struct{})
		wg     sync.WaitGroup
	)
	// One writer keeps tokens moving: the read side is never just replaying
	// a frozen snapshot, every Session read is gated behind a live token.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := rows; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pool.Exec(fmt.Sprintf("INSERT INTO ext3_kv VALUES (%d, %d)", i, i)); err == nil {
				writes.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Analysts: point Session reads spread over the seeded rows.
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("SELECT v FROM ext3_kv WHERE id = %d", rng.Intn(rows))
				if _, err := pool.Read(q, client.Session); err == nil {
					reads.Add(1)
				}
			}
		}(int64(nReplicas*10 + a))
	}

	res := &ext3Result{}
	interval := s.cfg.Duration / 30
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	start := time.Now()
	lastR, lastT := int64(0), start
	deadline := start.Add(s.cfg.Duration)
	for now := start; now.Before(deadline); now = time.Now() {
		time.Sleep(interval)
		r := reads.Load()
		t := time.Now()
		res.qps.Points = append(res.qps.Points,
			metrics.Point{Elapsed: t.Sub(start), Value: float64(r-lastR) / t.Sub(lastT).Seconds()})
		lastR, lastT = r, t
	}
	close(stop)
	wg.Wait()
	res.reads = reads.Load()
	res.writes = writes.Load()
	res.counters = pool.Counters()
	return res, nil
}

// Ext3 generates this reproduction's read scale-out extension figure: pooled
// Session-read throughput against 0, 1, 2 and 3 token-gated read replicas.
func (s *Suite) Ext3() (*Report, error) {
	counts := []int{0, 1, 2, 3}
	var series []LabeledSeries
	var notes []string
	for _, n := range counts {
		leg, err := s.ext3Leg(n)
		if err != nil {
			return nil, fmt.Errorf("ext3 leg %d: %w", n, err)
		}
		series = append(series, LabeledSeries{
			Label:  fmt.Sprintf("reads/s(%dr)", n),
			Series: leg.qps,
		})
		notes = append(notes, fmt.Sprintf(
			"%d replicas: %d reads (%.0f/s) %d writes; served replica=%d primary=%d bounces=%d failovers=%d",
			n, leg.reads, float64(leg.reads)/s.cfg.Duration.Seconds(), leg.writes,
			leg.counters.ReplicaReads, leg.counters.PrimaryReads,
			leg.counters.Bounces, leg.counters.Failovers))
	}
	notes = append(notes,
		"extension of §4: replicas serve Session reads behind the commit-LSN consistency token; the primary serves writes and any read no replica can satisfy",
		"caveat: all processes share one container (often a single CPU), so the curve shows routing and token overhead more than real multi-machine scaling — replica counts contend for the same core",
	)
	return &Report{
		ID:     "ext3",
		Title:  "Read scale-out: pooled read throughput vs replica count (token-gated Session reads)",
		Series: series,
		Notes:  notes,
	}, nil
}
