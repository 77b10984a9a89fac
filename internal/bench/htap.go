package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/htap"
	"hybridgc/internal/metrics"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/workload"
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
	db, err := core.Open(core.Config{GC: s.cfg.Base, LongLivedThreshold: s.cfg.LongLive})
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

	store := htap.NewStore(db, htap.Config{Interval: 5 * time.Millisecond, ChunkSlots: 1024})
	if err := store.EnableTable(tid, ext2Schema); err != nil {
		return nil, err
	}
	// Both legs start from a collected version space, and the lane leg from
	// a settled lane — the loaded rows already in chunks — so what a leg
	// measures is the lane against the row path, not the migrator's first
	// passes: at the quick scale a leg is over in a few migrator periods.
	db.GC().Collect()
	db.GC().Start()
	if laneOn {
		store.Migrate()
		store.Start()
		defer store.Stop()
	}

	var queries, writes atomic.Int64
	g := workload.NewGroup()
	// OLTP: two writers keep an eighth of the table hot, creating versions
	// the GC must chase and the migrator must treat as dirty; the rest
	// settles into chunks. Bounded by work, each stops once it has committed
	// its half of the updates.
	bound := s.workBound(quickWrites)
	var writing sync.WaitGroup
	for w := 0; w < 2; w++ {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		n := 0
		writing.Add(1)
		g.Loop(func() error {
			if bound > 0 && n == bound/2 {
				writing.Done()
				return workload.ErrDone
			}
			rid := rids[rng.Intn(len(rids)/8)]
			img, err := encode(int64(rng.Intn(100)), regions[rng.Intn(len(regions))])
			if err != nil {
				writing.Done()
				return err
			}
			if db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
				return tx.Update(tid, rid, img)
			}) == nil {
				writes.Add(1)
				n++
			}
			return nil
		})
	}
	// Snapshot churn: registered statement snapshots opened and released at
	// high frequency — the §4 condition the migrator's watermark discipline
	// must hold under.
	for c := 0; c < 2; c++ {
		g.Loop(func() error {
			db.Manager().AcquireSnapshot(txn.KindStatement, []ts.TableID{tid}).Release()
			return nil
		})
	}
	// OLAP: two analysts alternating a scalar SUM and a grouped COUNT.
	for a := 0; a < 2; a++ {
		grouped := false
		g.Loop(func() error {
			spec := htap.AggSpec{Op: htap.AggSum, Col: "amount"}
			if grouped {
				spec = htap.AggSpec{Op: htap.AggCount, GroupBy: "region"}
			}
			grouped = !grouped
			if _, err := store.Aggregate(tid, spec); err != nil {
				return err
			}
			queries.Add(1)
			return nil
		})
	}

	// Sample OLAP throughput and live-version accumulation over the run.
	res := &ext2Result{}
	d, wrote := s.cfg.Duration, make(chan struct{})
	if bound > 0 {
		d = math.MaxInt64
		go func() {
			writing.Wait()
			close(wrote)
		}()
	}
	workload.Sample(d, s.cfg.Duration/30, wrote, func(at, dt time.Duration) {
		q := queries.Load()
		res.olapQPS.Add(at, float64(q-res.queries)/dt.Seconds())
		res.queries, res.writes = q, writes.Load()
		res.versions.Add(at, float64(db.Stats().VersionsLive))
	})
	if err := g.Stop(); err != nil {
		return nil, err
	}
	if st := store.Stats(); len(st) == 1 {
		res.lane = st[0]
	}
	return res, nil
}

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
		ID:     "ext2",
		Title:  "HTAP column lane on vs off (mixed OLTP updates + OLAP aggregates + snapshot churn)",
		Header: []string{"leg", "OLTP writes", "OLAP aggregates"},
		Rows: [][]string{
			{"lane", fmt.Sprint(on.writes), fmt.Sprint(on.queries)},
			{"row", fmt.Sprint(off.writes), fmt.Sprint(off.queries)},
		},
		Series: []LabeledSeries{
			{Label: "olap-qps(lane)", Series: on.olapQPS},
			{Label: "olap-qps(row)", Series: off.olapQPS},
			{Label: "versions(lane)", Series: on.versions},
			{Label: "versions(row)", Series: off.versions},
		},
		Notes: []string{
			"extension of §5: the migrator ships settled versions past the GC horizon into column chunks; aggregates then scan vectors instead of version chains",
			fmt.Sprintf("OLAP aggregates lane/row: %.1fx", speedup),
			fmt.Sprintf("lane state at end: chunks=%d chunk-rows=%d dirty=%d delta=%d migrated=%d lag=%d",
				on.lane.Chunks, on.lane.ChunkRows, on.lane.DirtyRows, on.lane.DeltaRows,
				on.lane.MigratedRows, on.lane.Lag),
			"expected shape: lane-on OLAP throughput well above row-path; version curves comparable — the lane adds no GC blocker (its build snapshots are short statement snapshots)",
		},
	}, nil
}
