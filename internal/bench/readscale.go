package bench

// Ext3: read scale-out. One persistent primary plus 0..3 streaming replicas,
// all served on loopback, with the read-pool load of cmd/tpcc -read-replicas
// splitting the work — writes to the primary, Session reads across the
// replica set behind the consistency token. The figure is pooled read
// throughput per replica count.

import (
	"fmt"
	"os"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/gc"
	"hybridgc/internal/metrics"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/workload"
)

// ext3Leg measures pooled read throughput against nReplicas read replicas:
// the series of reads/s, and a note of where the reads were served.
func (s *Suite) ext3Leg(nReplicas int) (qps metrics.Series, note string, err error) {
	dir, err := os.MkdirTemp("", "ext3-*")
	if err != nil {
		return qps, "", err
	}
	defer os.RemoveAll(dir)

	// Nodes as hybridgcd runs them: the daemon's collector periods, a
	// persistent primary serving streams, token-gated replicas.
	primary, err := node.Start(node.Config{
		GC:     gc.ModeHG,
		Data:   dir,
		Server: server.Config{Addr: "127.0.0.1:0"},
		Source: repl.SourceConfig{HeartbeatEvery: 20 * time.Millisecond, StaleAfter: 30 * time.Second},
	})
	if err != nil {
		return qps, "", err
	}
	defer primary.Shutdown()

	var addrs []string
	for i := 0; i < nReplicas; i++ {
		r, err := node.Start(node.Config{
			GC:        gc.ModeHG,
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
			return qps, "", err
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
		return qps, "", err
	}
	defer pool.Close()

	g := workload.NewGroup()
	rp, err := workload.StartReadPool(g, pool, 4)
	if err != nil {
		return qps, "", err
	}
	var last int64
	workload.Sample(s.cfg.Duration, s.cfg.Duration/30, nil, func(at, dt time.Duration) {
		r := rp.Reads.Load()
		qps.Add(at, float64(r-last)/dt.Seconds())
		last = r
	})
	if err := g.Stop(); err != nil {
		return qps, "", err
	}
	c := pool.Counters()
	return qps, fmt.Sprintf("%d replicas: %d reads (%.0f/s) %d writes; served replica=%d primary=%d bounces=%d failovers=%d",
		nReplicas, rp.Reads.Load(), float64(rp.Reads.Load())/s.cfg.Duration.Seconds(), rp.Inserts.Load(),
		c.ReplicaReads, c.PrimaryReads, c.Bounces, c.Failovers), nil
}

// Ext3 generates this reproduction's read scale-out extension figure: pooled
// Session-read throughput against 0, 1, 2 and 3 token-gated read replicas.
func (s *Suite) Ext3() (*Report, error) {
	counts := []int{0, 1, 2, 3}
	var series []LabeledSeries
	var notes []string
	for _, n := range counts {
		qps, note, err := s.ext3Leg(n)
		if err != nil {
			return nil, fmt.Errorf("ext3 leg %d: %w", n, err)
		}
		series = append(series, LabeledSeries{Label: fmt.Sprintf("reads/s(%dr)", n), Series: qps})
		notes = append(notes, note)
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
