// Package workload drives the paper's evaluation scenario (§5.1): the
// modified TPC-C benchmark with one dedicated worker per warehouse bound to
// its home warehouse, plus an emulated OLAP component — a long-duration
// cursor under Stmt-SI (optionally with incremental FETCH processing) or
// repeated long Trans-SI transactions — while sampling the indicators each
// figure plots: active versions, committed statements per second, hash
// collision ratio, FETCH latency and traversal counts, Trans-SI query
// latency, and per-collector reclamation totals.
package workload

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/metrics"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Mode selects which collectors run, matching the paper's three compared
// configurations (§5): GT, GT+TG, and HG (=GT+TG+SI). ModeNone disables
// collection entirely (the Figure 2 overflow demonstration).
type Mode int

// The compared garbage collection configurations.
const (
	ModeNone Mode = iota
	ModeGT
	ModeGTTG
	ModeHG
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeGT:
		return "GT"
	case ModeGTTG:
		return "GT+TG"
	case ModeHG:
		return "HG"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode reads a -gc flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "none":
		return ModeNone, nil
	case "gt":
		return ModeGT, nil
	case "gttg", "gt+tg":
		return ModeGTTG, nil
	case "hg", "hybrid":
		return ModeHG, nil
	}
	return ModeNone, fmt.Errorf("unknown -gc mode %q", s)
}

// Periods masks the base periods down to the collectors the mode enables.
func (m Mode) Periods(base gc.Periods) gc.Periods {
	switch m {
	case ModeGT:
		return gc.Periods{GT: base.GT}
	case ModeGTTG:
		return gc.Periods{GT: base.GT, TG: base.TG}
	case ModeHG:
		return base
	default:
		return gc.Periods{}
	}
}

// FetchOptions emulates incremental query processing (§5.4): the cursor
// fetches Size rows, then the client "processes" them for Think before the
// next FETCH.
type FetchOptions struct {
	Size  int
	Think time.Duration
}

// TransSIOptions emulates the §5.5 scenario: repeatedly begin a Trans-SI
// transaction with undeclared scope, hold it for Sleep (application logic),
// run a full STOCK scan, and commit.
type TransSIOptions struct {
	Sleep time.Duration
}

// Options configures one experiment run.
type Options struct {
	Mode Mode
	// Base holds the three collectors' invocation periods before the mode
	// masks them. Zero selects scaled defaults (50 ms / 150 ms / 500 ms,
	// the paper's 1 s / 3 s / 10 s at 1/20 time scale).
	Base               gc.Periods
	LongLivedThreshold time.Duration
	TPCC               tpcc.Config
	HashBuckets        int
	// Duration is the wall-clock workload run time.
	Duration       time.Duration
	SampleInterval time.Duration
	// LongCursor opens a cursor over STOCK at start and holds it for the
	// whole run (the §5.2 blocker). Fetch, when non-nil, additionally runs
	// the incremental FETCH loop over it.
	LongCursor bool
	Fetch      *FetchOptions
	// StockPartitions, when >= 2, declares STOCK partitioned; with
	// CursorPartitions non-empty the long cursor is pruned to those
	// partitions and its snapshot declares the partition scope — the
	// partition-level table GC extension (§4.3's "finer-granular object").
	StockPartitions  int
	CursorPartitions []ts.PartitionID
	// TransSI, when non-nil, replaces the cursor blocker with the repeated
	// long Trans-SI transaction of §5.5.
	TransSI *TransSIOptions
	// StartGC, when non-nil, is called in place of the engine's own
	// work-driven collector loop and returns what stops it again. The
	// invocation-period sweep of Figures 18–19 paces the collectors itself
	// through it: there the period is the independent variable.
	StartGC func(*gc.Hybrid) (stop func())
}

func (o *Options) fill() {
	if o.Base == (gc.Periods{}) {
		o.Base = gc.Periods{GT: 50 * time.Millisecond, TG: 150 * time.Millisecond, SI: 500 * time.Millisecond}
	}
	if o.LongLivedThreshold <= 0 {
		o.LongLivedThreshold = 100 * time.Millisecond
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = 50 * time.Millisecond
	}
}

// FetchSample is one FETCH observation (Figures 14 and 15).
type FetchSample struct {
	Index     int
	Latency   time.Duration
	Traversed int64
}

// Result carries everything the figures plot.
type Result struct {
	Mode Mode
	// Versions is the active record version count over time (Figures 10, 17).
	Versions metrics.Series
	// Throughput is committed statements per second over time (Figure 12).
	Throughput metrics.Series
	// Collision is the hash collision ratio over time (Figure 13).
	Collision metrics.Series
	// ReclaimedGT/TG/SI are accumulated reclaimed versions per collector
	// over time (Figure 11).
	ReclaimedGT metrics.Series
	ReclaimedTG metrics.Series
	ReclaimedSI metrics.Series
	// Fetches are the incremental FETCH observations (Figures 14, 15).
	Fetches []FetchSample
	// TransSIScans are the latencies of the scan query inside each Trans-SI
	// transaction (Figure 16).
	TransSIScans []time.Duration
	// Committed counts statements committed during the measured window; with
	// Elapsed it yields the average throughput of Figures 18/19.
	Committed int64
	Elapsed   time.Duration
	// Final is the engine's closing statistics snapshot.
	Final core.Stats
	// Workers aggregates per-profile transaction outcomes.
	WorkersCommitted int64
}

// AvgThroughput returns committed statements per second over the run.
func (r *Result) AvgThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Run executes one experiment and returns its measurements.
func Run(o Options) (*Result, error) {
	o.fill()
	db, err := core.Open(core.Config{
		HashBuckets:        o.HashBuckets,
		GC:                 o.Mode.Periods(o.Base),
		LongLivedThreshold: o.LongLivedThreshold,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	driver, err := tpcc.New(db, o.TPCC)
	if err != nil {
		return nil, err
	}
	if err := driver.Load(); err != nil {
		return nil, err
	}

	res := &Result{Mode: o.Mode}
	sampler := metrics.NewSampler(o.SampleInterval)
	sampler.TrackGauge("versions", func() float64 { return float64(db.Space().Live()) })
	sampler.TrackGauge("collision", func() float64 { return db.Space().HT.Stats().CollisionRatio })
	sampler.TrackRate("throughput", db.StatementCount)
	h := db.GC()
	sampler.TrackGauge("reclaimed.GT", func() float64 { return float64(h.ReclaimedByGT()) })
	sampler.TrackGauge("reclaimed.TG", func() float64 { return float64(h.ReclaimedByTG()) })
	sampler.TrackGauge("reclaimed.SI", func() float64 { return float64(h.ReclaimedBySI()) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errOnce := sync.Once{}
	var runErr error
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
	}

	startStatements := db.StatementCount()
	start := time.Now()
	sampler.Start()
	stopGC := func() {}
	switch {
	case o.Mode == ModeNone:
	case o.StartGC != nil:
		stopGC = o.StartGC(h)
	default:
		h.Start()
		stopGC = h.Stop
	}

	// OLTP: one worker per warehouse, home warehouse only.
	workers := make([]*tpcc.Worker, driver.Config().Warehouses)
	for w := 1; w <= driver.Config().Warehouses; w++ {
		workers[w-1] = driver.NewWorker(w)
		wg.Add(1)
		go func(wk *tpcc.Worker) {
			defer wg.Done()
			if err := wk.Run(1<<62, stop); err != nil {
				fail(err)
			}
		}(workers[w-1])
	}

	// OLAP: long cursor (optionally with incremental FETCH).
	var fetchMu sync.Mutex
	if o.StockPartitions >= 2 {
		if err := db.SetTablePartitions(driver.StockTableID(), o.StockPartitions); err != nil {
			return nil, err
		}
	}
	if o.LongCursor {
		var cur *core.Cursor
		var err error
		if len(o.CursorPartitions) > 0 {
			cur, err = db.OpenPartitionCursor(driver.StockTableID(), o.CursorPartitions...)
		} else {
			cur, err = db.OpenCursor(driver.StockTableID())
		}
		if err != nil {
			return nil, err
		}
		if o.Fetch != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				idx := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					if cur.Exhausted() {
						// Restart the scan from a fresh cursor position but
						// keep the original snapshot open by reopening only
						// after the run — emulate by idling.
						select {
						case <-stop:
						case <-time.After(o.Fetch.Think):
						}
						continue
					}
					_, st, err := cur.Fetch(o.Fetch.Size)
					if err != nil {
						fail(err)
						return
					}
					fetchMu.Lock()
					res.Fetches = append(res.Fetches, FetchSample{
						Index: idx, Latency: st.Duration, Traversed: st.Traversed})
					fetchMu.Unlock()
					idx++
					select {
					case <-stop:
						return
					case <-time.After(o.Fetch.Think):
					}
				}
			}()
		}
		defer cur.Close()
	}

	// OLAP: repeated long Trans-SI transactions.
	if o.TransSI != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin(txn.TransSI)
				select {
				case <-stop:
					tx.Abort()
					return
				case <-time.After(o.TransSI.Sleep):
				}
				t0 := time.Now()
				err := tx.Scan(driver.StockTableID(), func(_ ts.RID, _ []byte) bool { return true })
				lat := time.Since(t0)
				if err != nil {
					tx.Abort()
					fail(err)
					return
				}
				if err := tx.Commit(); err != nil {
					fail(err)
					return
				}
				fetchMu.Lock()
				res.TransSIScans = append(res.TransSIScans, lat)
				fetchMu.Unlock()
			}
		}()
	}

	time.Sleep(o.Duration)
	// The last throughput-rate sample must land while workers still run;
	// sampling after the stop would append a meaningless ~0 rate.
	sampler.Sample()
	close(stop)
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Committed = db.StatementCount() - startStatements
	stopGC()
	sampler.Stop()

	res.Versions = sampler.Get("versions")
	res.Collision = sampler.Get("collision")
	res.Throughput = sampler.Get("throughput")
	// Drop the post-stop rate sample, then any trailing rate samples whose
	// measurement window was shorter than half the sample interval — a
	// ticker firing next to the final explicit sample yields a meaningless
	// near-zero-width rate. Gauge series keep their final points: versions
	// and reclaim totals are meaningful after the stop.
	pts := res.Throughput.Points
	if n := len(pts); n >= 2 {
		pts = pts[:n-1]
	}
	for len(pts) >= 2 && pts[len(pts)-1].Elapsed-pts[len(pts)-2].Elapsed < o.SampleInterval/2 {
		pts = pts[:len(pts)-1]
	}
	res.Throughput.Points = pts
	res.ReclaimedGT = sampler.Get("reclaimed.GT")
	res.ReclaimedTG = sampler.Get("reclaimed.TG")
	res.ReclaimedSI = sampler.Get("reclaimed.SI")
	res.Final = db.Stats()
	for _, wk := range workers {
		res.WorkersCommitted += wk.Stats.TotalCommitted()
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}
