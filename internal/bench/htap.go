package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/metrics"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// ext2Result is one leg of the HTAP experiment: mixed OLTP updates and OLAP
// aggregates against the same table, with the column lane on or off.
type ext2Result struct {
	olapQPS  metrics.Series // OLAP aggregates/s over time
	versions metrics.Series // live version count over time
	queries  int64
	writes   int64
	lane     htap.LaneStats
}

var ext2Schema = colstore.Schema{
	{Name: "amount", Type: colstore.Int64},
	{Name: "region", Type: colstore.String},
}

// ext2Leg runs one leg: OLTP writers updating random fact rows (version
// churn), snapshot churners registering and dropping short statement
// snapshots at high frequency, and OLAP analysts aggregating — each
// aggregate itself registers a snapshot, so the read side adds churn of its
// own. laneOn starts the background migrator; off, the identical executor
// serves every aggregate through MVCC row reads (nothing is ever migrated),
// which is exactly the row-store baseline.
func (s *Suite) ext2Leg(laneOn bool) (*ext2Result, error) {
	cfg := core.Config{
		GC:                 workloadPeriods(s.cfg.Base),
		LongLivedThreshold: s.cfg.LongLive,
	}
	db, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	tid, err := db.CreateTable("FACTS")
	if err != nil {
		return nil, err
	}

	rows := 4096
	if s.cfg.Quick {
		rows = 512
	}
	regions := []string{"north", "south", "east", "west"}
	encode := func(amount int64, region string) ([]byte, error) {
		return colstore.EncodeRow(ext2Schema, colstore.Row{colstore.IntV(amount), colstore.StrV(region)})
	}
	rids := make([]ts.RID, 0, rows)
	for base := 0; base < rows; base += 256 {
		end := min(base+256, rows)
		err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
			for i := base; i < end; i++ {
				img, err := encode(int64(i%100), regions[i%len(regions)])
				if err != nil {
					return err
				}
				rid, err := tx.Insert(tid, img)
				if err != nil {
					return err
				}
				rids = append(rids, rid)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	store, err := htap.NewStore(db, htap.Config{Interval: 5 * time.Millisecond, ChunkSlots: 1024})
	if err != nil {
		return nil, err
	}
	if err := store.EnableTable(tid, ext2Schema); err != nil {
		return nil, err
	}
	db.GC().Start()
	defer db.GC().Stop()
	if laneOn {
		store.Start()
		defer store.Stop()
	}

	var (
		queries atomic.Int64
		writes  atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	// OLTP: two writers keep a slice of the table hot, creating versions the
	// GC must chase and the migrator must treat as dirty.
	for w := 0; w < 2; w++ {
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
				rid := rids[rng.Intn(len(rids))]
				img, err := encode(int64(rng.Intn(100)), regions[rng.Intn(len(regions))])
				if err != nil {
					return
				}
				_ = db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
					return tx.Update(tid, rid, img)
				})
				writes.Add(1)
			}
		}(int64(w + 1))
	}
	// Snapshot churn: registered statement snapshots opened and released at
	// high frequency — the §4 condition the migrator's watermark discipline
	// must hold under.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Manager().AcquireSnapshot(txn.KindStatement, []ts.TableID{tid})
				snap.Release()
			}
		}()
	}
	// OLAP: two analysts alternating a scalar SUM and a grouped COUNT.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				spec := htap.AggSpec{Op: htap.AggSum, Col: "amount"}
				if i%2 == 1 {
					spec = htap.AggSpec{Op: htap.AggCount, GroupBy: "region"}
				}
				if _, err := store.Aggregate(tid, spec); err != nil {
					return
				}
				queries.Add(1)
			}
		}()
	}

	// Sample OLAP throughput and live-version accumulation over the run.
	res := &ext2Result{}
	interval := s.cfg.Duration / 30
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	start := time.Now()
	lastQ, lastT := int64(0), start
	deadline := start.Add(s.cfg.Duration)
	for now := start; now.Before(deadline); now = time.Now() {
		time.Sleep(interval)
		q := queries.Load()
		t := time.Now()
		qps := float64(q-lastQ) / t.Sub(lastT).Seconds()
		lastQ, lastT = q, t
		res.olapQPS.Points = append(res.olapQPS.Points, metrics.Point{Elapsed: t.Sub(start), Value: qps})
		res.versions.Points = append(res.versions.Points,
			metrics.Point{Elapsed: t.Sub(start), Value: float64(db.Stats().VersionsLive)})
	}
	close(stop)
	wg.Wait()
	res.queries = queries.Load()
	res.writes = writes.Load()
	if st := store.Stats(); len(st) == 1 {
		res.lane = st[0]
	}
	return res, nil
}

// workloadPeriods masks the base periods the way ModeHG runs them: all three
// collectors on.
func workloadPeriods(base gc.Periods) gc.Periods { return base }

// Ext2 regenerates this reproduction's HTAP extension figure: mixed
// OLTP/OLAP throughput and version accumulation with the column lane on
// versus off, under high-frequency snapshot churn. With the lane on, the
// migrator ships settled versions into dictionary-encoded chunks and the
// analysts' aggregates ride column vectors; off, every aggregate walks MVCC
// version chains row by row.
func (s *Suite) Ext2() (*Report, error) {
	off, err := s.ext2Leg(false)
	if err != nil {
		return nil, err
	}
	on, err := s.ext2Leg(true)
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if off.queries > 0 {
		speedup = float64(on.queries) / float64(off.queries)
	}
	return &Report{
		ID:    "ext2",
		Title: "HTAP column lane on vs off (mixed OLTP updates + OLAP aggregates + snapshot churn)",
		Series: []LabeledSeries{
			{Label: "olap-qps(lane)", Series: on.olapQPS},
			{Label: "olap-qps(row)", Series: off.olapQPS},
			{Label: "versions(lane)", Series: on.versions},
			{Label: "versions(row)", Series: off.versions},
		},
		Notes: []string{
			"extension of §5: the migrator ships settled versions past the GC horizon into column chunks; aggregates then scan vectors instead of version chains",
			fmt.Sprintf("OLAP aggregates: lane=%d row=%d (%.1fx) over %v; OLTP writes: lane=%d row=%d",
				on.queries, off.queries, speedup, s.cfg.Duration, on.writes, off.writes),
			fmt.Sprintf("lane state at end: chunks=%d chunk-rows=%d dirty=%d delta=%d migrated=%d lag=%d",
				on.lane.Chunks, on.lane.ChunkRows, on.lane.DirtyRows, on.lane.DeltaRows,
				on.lane.MigratedRows, on.lane.Lag),
			"expected shape: lane-on OLAP throughput well above row-path; version curves comparable — the lane adds no GC blocker (its build snapshots are short statement snapshots)",
		},
	}, nil
}
