// Package workload is the one harness that runs the paper's evaluation
// scenario (§5.1) beside an engine: the modified TPC-C benchmark with one
// dedicated worker per warehouse bound to its home warehouse, plus the
// emulated OLAP component — a long-duration cursor on STOCK under Stmt-SI
// (held, fetching incrementally, or pruned to partitions) or repeated long
// Trans-SI transactions. Start starts that load for cmd/tpcc, cmd/gcmon and
// Run; Run is one figure's experiment, sampling the indicators each figure
// plots: active versions, committed statements per second, hash collision
// ratio, FETCH latency and traversal counts, Trans-SI query latency, and
// per-collector reclamation totals. StartReadPool is the read scale-out
// load of cmd/tpcc -read-replicas and the ext3 figure.
package workload

import (
	"cmp"
	"errors"
	"math"
	"sync"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/gc"
	"hybridgc/internal/metrics"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

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
	Mode gc.Mode
	// Base holds the three collectors' invocation periods before the mode
	// masks them; zero selects gc.DefaultPeriods.
	Base gc.Periods
	// LongLivedThreshold is TG's cutoff; zero selects the collector's
	// default.
	LongLivedThreshold time.Duration
	TPCC               tpcc.Config
	HashBuckets        int
	// Duration is the wall-clock workload run time.
	Duration time.Duration
	// Transactions, when positive, bounds the run by work instead: the
	// workers stop once they have committed this many transactions between
	// them (an equal share each), and the run ends, whatever Duration
	// says, on a last sample taken once the started collectors have run a
	// pass over the finished work (awaitPass). Runs compared at equal
	// committed work compare what the work left behind, not how much CPU
	// each got.
	Transactions   int
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
	// TransSI, when non-nil, runs the repeated long Trans-SI transaction of
	// §5.5.
	TransSI *TransSIOptions
	// StartGC, when non-nil, is called in place of the engine's own
	// work-driven collector loop and returns what stops it again. The
	// invocation-period sweep of Figures 18–19 paces the collectors itself
	// through it: there the period is the independent variable.
	StartGC func(*gc.Hybrid) (stop func())
}

// FetchSample is one FETCH observation (Figures 14 and 15).
type FetchSample struct {
	Index     int
	Latency   time.Duration
	Traversed int64
}

// Group is a set of goroutines that run until Stop — the load beside an
// engine. The first error one of them returns is Stop's.
type Group struct {
	stop  chan struct{}
	close func()
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
}

// NewGroup returns an empty, running group.
func NewGroup() *Group {
	g := &Group{stop: make(chan struct{})}
	g.close = sync.OnceFunc(func() { close(g.stop) })
	return g
}

// spawn runs fn in a goroutine of the group; fn must return once stop closes.
func (g *Group) spawn(fn func(stop <-chan struct{}) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(g.stop); err != nil {
			g.mu.Lock()
			g.err = cmp.Or(g.err, err)
			g.mu.Unlock()
		}
	}()
}

// ErrDone, returned by a Loop step, ends that loop without an error: the
// step has done the work it was bounded to.
var ErrDone = errors.New("workload: loop done")

// Loop runs step over and over in a goroutine of the group until Stop, until
// step returns ErrDone, or until step fails with an error that is not
// transient: a write conflict or version pressure is the load going on, not
// failing.
func (g *Group) Loop(step func() error) {
	g.spawn(func(stop <-chan struct{}) error {
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			if err := step(); errors.Is(err, ErrDone) {
				return nil
			} else if err != nil && !core.IsTransient(err) {
				return err
			}
		}
	})
}

// pause waits for d, or less if the group is stopped meanwhile; it reports
// whether the group still runs.
func (g *Group) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-g.stop:
		return false
	case <-t.C:
		return true
	}
}

// Stop ends every goroutine of the group, waits for them and returns the
// first error one of them returned. Stop may be called more than once.
func (g *Group) Stop() error {
	g.close()
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Load is TPC-C running beside an engine: one worker per warehouse and the
// long readers its Options asked for.
type Load struct {
	*Group
	Workers []*tpcc.Worker
	// working counts the workers still running: until Stop, or until they
	// have committed Options.Transactions.
	working sync.WaitGroup
	// Cursor is the long STOCK cursor, nil unless one is held.
	Cursor engine.Cursor
	// Fetches are the FETCH observations and Scans the Trans-SI scan
	// latencies (Figure 16); read them after Stop.
	Fetches []FetchSample
	Scans   []time.Duration
}

// Start starts a loaded driver's workers — each until Stop or, with
// o.Transactions, until it has committed its share — and, given an engine
// (nil over the wire, where only the workers run), the long readers o asks
// for: STOCK partitioned o.StockPartitions ways, the held cursor of
// o.LongCursor with o.Fetch's loop over it, and o.TransSI's analyst. The
// cursor is opened before any goroutine starts, so an error leaves nothing
// running.
func Start(d *tpcc.Driver, eng engine.Engine, o Options) (*Load, error) {
	l := &Load{Group: NewGroup()}
	stock := d.StockTableID()
	if eng != nil && o.StockPartitions >= 2 {
		if err := eng.Shard(0).SetTablePartitions(stock, o.StockPartitions); err != nil {
			return nil, err
		}
	}
	if eng != nil && o.LongCursor {
		var err error
		if l.Cursor, err = openCursor(eng, stock, o.CursorPartitions); err != nil {
			return nil, err
		}
	}
	n := d.Config().Warehouses
	share := int64(1) << 62
	if o.Transactions > 0 {
		share = int64((o.Transactions + n - 1) / n)
	}
	for w := 1; w <= n; w++ {
		wk := d.NewWorker(w)
		l.Workers = append(l.Workers, wk)
		l.working.Add(1)
		l.spawn(func(stop <-chan struct{}) error {
			defer l.working.Done()
			return wk.RunCommitted(share, stop)
		})
	}
	if f := o.Fetch; f != nil && l.Cursor != nil {
		l.Loop(func() error {
			if !l.Cursor.Exhausted() {
				_, st, err := l.Cursor.Fetch(f.Size)
				if err != nil {
					return err
				}
				l.Fetches = append(l.Fetches, FetchSample{Index: len(l.Fetches), Latency: st.Duration, Traversed: st.Traversed})
			}
			l.pause(f.Think)
			return nil
		})
	}
	if a := o.TransSI; a != nil && eng != nil {
		l.Loop(func() error {
			tx := eng.Begin(txn.TransSI)
			if !l.pause(a.Sleep) {
				tx.Abort()
				return nil
			}
			t0 := time.Now()
			if err := tx.Scan(stock, func(ts.RID, []byte) bool { return true }); err != nil {
				tx.Abort()
				return err
			}
			lat := time.Since(t0)
			if err := tx.Commit(); err != nil {
				return err
			}
			l.Scans = append(l.Scans, lat)
			return nil
		})
	}
	return l, nil
}

// openCursor opens the long STOCK cursor: over the whole table, or pruned to
// parts of a partitioned one (partition scopes are a single-shard feature).
func openCursor(eng engine.Engine, stock ts.TableID, parts []ts.PartitionID) (engine.Cursor, error) {
	if len(parts) == 0 {
		return eng.OpenCursor(stock)
	}
	cur, err := eng.Shard(0).OpenPartitionCursor(stock, parts...)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// Stop ends the workers and readers, waits for them, releases the cursor and
// returns the first error one of them met.
func (l *Load) Stop() error {
	err := l.Group.Stop()
	if l.Cursor != nil {
		l.Cursor.Close()
	}
	return err
}

// Sample calls fn once per interval until d has passed or done is closed,
// with the time since it began and since the previous call: the sampling
// loop behind every figure's series. When done closes, fn is called once
// more, right then — the sample a run bounded by work ends on. A nil done
// never closes.
func Sample(d, interval time.Duration, done <-chan struct{}, fn func(at, dt time.Duration)) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	last := start
	for at := time.Duration(0); at < d; {
		select {
		case <-tick.C:
		case <-done:
			d = 0
		}
		now := time.Now()
		at = now.Sub(start)
		fn(at, now.Sub(last))
		last = now
	}
}

// Result carries everything the figures plot.
type Result struct {
	Mode gc.Mode
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
	// Final is the engine's statistics at the last sample.
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
	o.Duration = cmp.Or(o.Duration, 2*time.Second)
	o.SampleInterval = cmp.Or(o.SampleInterval, 50*time.Millisecond)
	periods := o.Mode.Periods(cmp.Or(o.Base, gc.DefaultPeriods()))
	db, err := core.Open(core.Config{
		HashBuckets:        o.HashBuckets,
		GC:                 periods,
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
	h := db.GC()
	stopGC := h.Stop
	if o.StartGC != nil {
		stopGC = o.StartGC(h)
	} else {
		h.Start()
	}
	defer stopGC()
	load, err := Start(driver, engine.NewSingle(db), o)
	if err != nil {
		return nil, err
	}

	res := &Result{Mode: o.Mode}
	first := db.StatementCount()
	prev := first
	d := o.Duration
	var end <-chan struct{} // a run of Duration ends on the clock alone
	if o.Transactions > 0 {
		// The last sample is taken once the started collectors have run a
		// pass over the finished work: what the run compares is what they
		// reclaim of it, not how far behind a loaded box left them.
		d = math.MaxInt64
		settled := make(chan struct{})
		go func() {
			defer close(settled)
			load.working.Wait()
			awaitPass(h, periods)
		}()
		end = settled
	}
	Sample(d, o.SampleInterval, end, func(at, dt time.Duration) {
		st := db.Stats()
		res.Versions.Add(at, float64(st.VersionsLive))
		res.Throughput.Add(at, float64(st.Statements-prev)/dt.Seconds())
		res.Collision.Add(at, st.Hash.CollisionRatio)
		res.ReclaimedGT.Add(at, float64(h.ReclaimedByGT()))
		res.ReclaimedTG.Add(at, float64(h.ReclaimedByTG()))
		res.ReclaimedSI.Add(at, float64(h.ReclaimedBySI()))
		prev, res.Elapsed, res.Final = st.Statements, at, st
	})
	res.Committed = prev - first
	err = load.Stop()
	res.Fetches, res.TransSIScans = load.Fetches, load.Scans
	for _, wk := range load.Workers {
		res.WorkersCommitted += wk.Stats.TotalCommitted()
	}
	return res, err
}

// awaitPass waits until h has begun and finished a pass since the call: one
// running TG when the mode has it, otherwise GT. Every collector runs on a
// period, so a pass comes within one; awaitPass gives up after a hundred,
// when nothing runs them.
func awaitPass(h *gc.Hybrid, p gc.Periods) {
	tot, period := &h.GT.Totals, p.GT
	if p.TG > 0 {
		tot, period = &h.TG.Totals, p.TG
	}
	if period <= 0 {
		return
	}
	// A pass in flight now may have begun before the work ended: wait for
	// the one after it.
	for want, end := tot.Runs()+2, time.Now().Add(100*period); tot.Runs() < want && time.Now().Before(end); {
		time.Sleep(period / 10)
	}
}
