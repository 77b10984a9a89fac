package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/wire"
)

const nProfiles = int(tpcc.TxnStockLevel) + 1

// sample is one RunOne call as its worker saw it, packed to 12 bytes so a
// run's worth of them does not move the Go collector's pacing.
type sample struct {
	endUS   uint32 // µs since the run's base
	durNS   uint32 // clamped at 4.29 s
	profile uint8
	ok      bool // committed
	cross   bool // committed across shards
}

// recorder learns what a RunOne call did by differencing the worker's own
// counters around it.
type recorder struct {
	samples            []sample
	committed, aborted [nProfiles]int64
	cross              int64
}

func (r *recorder) observe(st *tpcc.WorkerStats, end, dur int64) {
	s := sample{endUS: uint32(end / 1e3), durNS: uint32(min(dur, math.MaxUint32))}
	for p := 0; p < nProfiles; p++ {
		if c := st.Committed[p].Load(); c != r.committed[p] {
			r.committed[p], s.profile, s.ok = c, uint8(p), true
			break
		}
		if a := st.Aborted[p].Load(); a != r.aborted[p] {
			r.aborted[p], s.profile = a, uint8(p)
			break
		}
	}
	if c := st.TotalCross(); c != r.cross {
		r.cross, s.cross = c, true
	}
	r.samples = append(r.samples, s)
}

type timed struct{ end, dur int64 }

type fetchSample struct {
	end, dur        int64
	rows, traversed int64
}

// engStats is core.Stats summed (or averaged, where a sum means nothing) over
// the engine's shards.
type engStats struct {
	created, reclaimed, migrated, traversed, statements int64
	liveBytes                                           int64
	groups, txns, aborted                               int64
	activeSnaps, cidRange, horizonLag                   float64
	collision, groupList                                float64
}

// collectorAgg is what the traced run's pacer measured of one collector.
type collectorAgg struct {
	busy, chains, reclaimed int64
}

// counters is one reading of every cumulative counter the per-layer metrics
// difference across the window or a slice.
type counters struct {
	t           int64
	eng         engStats
	gcRuns      [3]int64
	gcReclaimed [3]int64
	walRecords  int64
	walBatches  int64
	walSyncs    int64
	walBytes    int64
	srv         wire.Stats
	mallocs     uint64
	allocBytes  uint64
	gcCPU       float64 // seconds
}

// runner drives one measured run on one deployment.
type runner struct {
	spec workloadSpec
	dep  *deployment
	tr   *tracer // nil when untraced
	base time.Time

	stop     atomic.Bool   // workers
	quit     chan struct{} // everything else
	inWindow atomic.Bool
	wg       sync.WaitGroup

	errMu sync.Mutex
	err   error

	recs    []*recorder
	workers []*tpcc.Worker
	scans   []timed
	fetches []fetchSample

	// Sampler output, window only.
	liveSum, liveN, liveMax int64
	statSum                 engStats
	statN                   int64

	gcMu sync.Mutex
	gcs  [3]collectorAgg

	bounds []counters // one per slice boundary (traced) or window end (untraced)
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

func (r *runner) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

func (r *runner) failure() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// bg runs fn until quit closes; fn returns an error only on failure.
func (r *runner) bg(name string, fn func() error) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if err := fn(); err != nil {
			r.fail(fmt.Errorf("%s: %w", name, err))
		}
	}()
}

// every calls fn once per period until quit closes or fn fails. A tick that
// falls due while fn still runs is dropped.
func (r *runner) every(period time.Duration, fn func() error) error {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			return nil
		case <-tick.C:
		}
		if err := fn(); err != nil {
			return err
		}
	}
}

// everyAbout is every with the gap after each call drawn uniformly from half
// to one and a half periods. The collectors' periods all divide a second, and
// a fixed cadence would hold one phase against them for a whole run — a
// different one each run. The draws do not depend on the seed.
func (r *runner) everyAbout(period time.Duration, fn func() error) error {
	rng := rand.New(rand.NewSource(1))
	t := time.NewTimer(period)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return nil
		case <-t.C:
		}
		if err := fn(); err != nil {
			return err
		}
		t.Reset(period/2 + time.Duration(rng.Int63n(int64(period))))
	}
}

// worker is the closed loop: the next transaction is sent when the previous
// one returns, with no think time.
func (r *runner) worker(i int) error {
	wk, rec := r.workers[i], r.recs[i]
	var slot *workerSlot
	if r.tr != nil {
		slot = r.tr.register(i + 1)
	}
	for !r.stop.Load() {
		if slot != nil {
			slot.rootID = r.tr.nextID.Add(1)
		}
		t0 := r.now()
		err := wk.RunOne()
		t1 := r.now()
		if err != nil {
			return err
		}
		rec.observe(&wk.Stats, t1, t1-t0)
		if slot != nil && slot.sampled {
			slot.sampled = false
			r.tr.emit(span{id: slot.rootID, kind: "tpcc.run_one", start: t0, end: t1, worker: slot.worker})
		}
	}
	return nil
}

// analyst is htap_pin's reader (§5.5): about every analystPeriod it begins a
// Trans-SI transaction, scans all of STOCK and commits.
func (r *runner) analyst() error {
	stock := r.dep.drv.StockTableID()
	want := r.dep.cfg.Warehouses * r.dep.cfg.Items
	return r.everyAbout(analystPeriod, func() error {
		tx, err := r.dep.be.Begin(true)
		if err != nil {
			return err
		}
		rows := 0
		t0 := r.now()
		err = tx.Scan(stock, func(ts.RID, []byte) bool { rows++; return true })
		t1 := r.now()
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		if rows != want {
			return fmt.Errorf("STOCK scan saw %d rows, want %d", rows, want)
		}
		r.scans = append(r.scans, timed{end: t1, dur: t1 - t0})
		return nil
	})
}

// cursor is the paper's blocker (§5.2, §5.4): one cursor on STOCK opened
// before the window and held to its end, fetching incrementally.
func (r *runner) cursor() error {
	cur, err := r.dep.eng.OpenCursor(r.dep.drv.StockTableID())
	if err != nil {
		return err
	}
	defer cur.Close()
	think := time.NewTimer(0)
	defer think.Stop()
	for {
		select {
		case <-r.quit:
			return nil
		case <-think.C:
		}
		if !cur.Exhausted() {
			t0 := r.now()
			_, st, err := cur.Fetch(cursorRows)
			if err != nil {
				return err
			}
			t1 := r.now()
			r.fetches = append(r.fetches, fetchSample{end: t1, dur: int64(st.Duration),
				rows: int64(st.Rows), traversed: st.Traversed})
			if r.tr != nil && r.tr.on.Load() {
				r.tr.emit(span{id: r.tr.nextID.Add(1), kind: "core.fetch", start: t0, end: t1})
			}
		}
		think.Reset(cursorThink)
	}
}

func (r *runner) readEngine() engStats {
	var s engStats
	n := r.dep.eng.Shards()
	for i := 0; i < n; i++ {
		st := r.dep.eng.Shard(i).Stats()
		s.created += st.VersionsCreated
		s.reclaimed += st.VersionsReclaimed
		s.migrated += st.VersionsMigrated
		s.traversed += st.VersionsTraversed
		s.statements += st.Statements
		s.liveBytes += st.VersionsLiveBytes
		s.groups += st.Txn.GroupsCommitted
		s.txns += st.Txn.TxnsCommitted
		s.aborted += st.Txn.TxnsAborted
		s.activeSnaps += float64(st.ActiveSnapshots)
		// Stats reads CurrentCID before the oldest snapshot: one that began
		// in between makes the unsigned difference wrap. Such a range is 0.
		if st.ActiveCIDRange <= st.CurrentCID {
			s.cidRange += float64(st.ActiveCIDRange) / float64(n)
		}
		if st.GlobalHorizon < st.CurrentCID { // with no snapshot the horizon is past the head
			s.horizonLag += float64(st.CurrentCID-st.GlobalHorizon) / float64(n)
		}
		s.collision += st.Hash.CollisionRatio / float64(n)
		s.groupList += float64(st.GroupListLen)
	}
	return s
}

// sampler reads the live version count every couple of milliseconds — well
// below the 50 ms GT period, so the saw-tooth is averaged, not aliased — and
// the full Stats() every 100 ms.
func (r *runner) sampler() error {
	every := int(statsSamplePeriod / liveSamplePeriod)
	i := 0
	return r.every(liveSamplePeriod, func() error {
		if !r.inWindow.Load() {
			return nil
		}
		var live int64
		for s := 0; s < r.dep.eng.Shards(); s++ {
			live += r.dep.eng.Shard(s).Space().Live()
		}
		r.liveSum += live
		r.liveN++
		r.liveMax = max(r.liveMax, live)
		if i++; i%every != 0 {
			return nil
		}
		st := r.readEngine()
		r.statSum.liveBytes += st.liveBytes
		r.statSum.activeSnaps += st.activeSnaps
		r.statSum.cidRange += st.cidRange
		r.statSum.horizonLag += st.horizonLag
		r.statSum.collision += st.collision
		r.statSum.groupList += st.groupList
		r.statN++
		return nil
	})
}

// pace is the traced run's stand-in for gc.Hybrid.Start: one ticker per
// collector per shard calling RunGT/RunTG/RunSI, so each call can be timed.
// RunTG and RunSI run GT first (§4.4); their time includes it.
func (r *runner) pace(which int, period time.Duration, run func() gc.RunStats) {
	names := [3]string{"gc.gt", "gc.tg", "gc.si"}
	r.bg(names[which], func() error {
		return r.every(period, func() error {
			t0 := r.now()
			st := run()
			t1 := r.now()
			if !r.inWindow.Load() {
				return nil
			}
			r.gcMu.Lock()
			a := &r.gcs[which]
			a.busy += t1 - t0
			a.chains += st.ChainsScanned
			a.reclaimed += st.Versions
			r.gcMu.Unlock()
			if r.tr.on.Load() {
				r.tr.emit(span{id: r.tr.nextID.Add(1), kind: names[which], start: t0, end: t1})
			}
			return nil
		})
	})
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// read takes one reading of every cumulative counter. The Go heap figures
// stop the world, so only the traced run asks for them.
func (r *runner) read(heap bool) counters {
	c := counters{t: r.now(), eng: r.readEngine()}
	for i := 0; i < r.dep.eng.Shards(); i++ {
		db := r.dep.eng.Shard(i)
		h := db.GC()
		for k, tot := range []*gc.Totals{&h.GT.Totals, &h.TG.Totals, &h.SI.Totals} {
			c.gcRuns[k] += tot.Runs()
			c.gcReclaimed[k] += tot.Versions()
		}
		if lg := db.WAL(); lg != nil {
			m := lg.MetricsSnapshot()
			c.walRecords += m.Records
			c.walBatches += m.Batches
			c.walSyncs += m.Syncs
			c.walBytes += lg.Size()
		}
	}
	if r.dep.srv != nil {
		c.srv = r.dep.srv.Stats()
	}
	if heap {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		c.mallocs, c.allocBytes = m.Mallocs, m.TotalAlloc
		metrics.Read(gcCPUSample)
		c.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return c
}

// measure starts the load, lets it warm up, and holds the window open for
// ten slices. In a traced run spans are recorded on half of the slices only:
// the others are the same process untraced, and the gap between the two
// is trace.overhead_frac.
func (r *runner) measure(slice time.Duration) error {
	r.quit = make(chan struct{})
	r.workers = make([]*tpcc.Worker, workers)
	r.recs = make([]*recorder, workers)
	for i := range r.workers {
		r.workers[i] = r.dep.drv.NewWorker(i + 1)
		r.recs[i] = &recorder{samples: make([]sample, 0, 1<<19)}
	}

	r.bg("sampler", r.sampler)
	if r.spec.pin {
		r.bg("analyst", r.analyst)
		r.bg("cursor", r.cursor)
	}
	if r.tr != nil {
		for i := 0; i < r.dep.eng.Shards(); i++ {
			h := r.dep.eng.Shard(i).GC()
			r.pace(0, gcPeriods.GT, h.RunGT)
			r.pace(1, gcPeriods.TG, h.RunTG)
			r.pace(2, gcPeriods.SI, h.RunSI)
		}
	}
	var wwg sync.WaitGroup
	for i := range r.workers {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			if err := r.worker(i); err != nil {
				r.fail(fmt.Errorf("worker %d: %w", i+1, err))
			}
		}(i)
	}

	time.Sleep(warmup)
	r.inWindow.Store(true)
	for i := 0; i <= slices; i++ {
		if r.tr != nil || i == 0 || i == slices {
			r.bounds = append(r.bounds, r.read(r.tr != nil))
		}
		if i == slices {
			break
		}
		if r.tr != nil {
			r.tr.on.Store(traced(i))
		}
		time.Sleep(time.Duration(r.bounds[0].t) + time.Duration(i+1)*slice - time.Duration(r.now()))
		if err := r.failure(); err != nil {
			break
		}
	}
	r.inWindow.Store(false)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	r.stop.Store(true)
	wwg.Wait()
	close(r.quit)
	r.wg.Wait()
	return r.failure()
}
