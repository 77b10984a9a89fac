package bench

import (
	"fmt"
	"sync"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/workload"
)

func labeled(res map[workload.Mode]*workload.Result, pick func(*workload.Result) LabeledSeries) []LabeledSeries {
	out := make([]LabeledSeries, 0, len(compared))
	for _, m := range compared {
		ls := pick(res[m])
		ls.Label = m.String()
		out = append(out, ls)
	}
	return out
}

// Fig10 regenerates Figure 10: the number of record versions over time under
// a long-duration cursor on STOCK, per collector configuration.
func (s *Suite) Fig10() (*Report, error) {
	res, err := s.cursor()
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig10",
		Title: "record versions over time, long-duration cursor on STOCK",
		Series: labeled(res, func(r *workload.Result) LabeledSeries {
			return LabeledSeries{Series: r.Versions}
		}),
		Notes: []string{
			"paper shape: GT and GT+TG grow; HG stays almost constant",
			fmt.Sprintf("final versions: GT=%.0f GT+TG=%.0f HG=%.0f",
				res[workload.ModeGT].Versions.Last(),
				res[workload.ModeGTTG].Versions.Last(),
				res[workload.ModeHG].Versions.Last()),
		},
	}, nil
}

// Fig11 regenerates Figure 11: accumulated versions reclaimed by each of
// GT, TG and SI while HybridGC runs the Figure 10 workload.
func (s *Suite) Fig11() (*Report, error) {
	res, err := s.cursor()
	if err != nil {
		return nil, err
	}
	hg := res[workload.ModeHG]
	return &Report{
		ID:    "fig11",
		Title: "accumulated reclaimed versions per collector under HG",
		Series: []LabeledSeries{
			{Label: "GT", Series: hg.ReclaimedGT},
			{Label: "TG", Series: hg.ReclaimedTG},
			{Label: "SI", Series: hg.ReclaimedSI},
		},
		Notes: []string{
			"paper shape: GT reclaims ~nothing (blocked by the cursor); TG reclaims the bulk; SI reclaims the pinned table's intermediates",
			fmt.Sprintf("totals: GT=%.0f TG=%.0f SI=%.0f",
				hg.ReclaimedGT.Last(), hg.ReclaimedTG.Last(), hg.ReclaimedSI.Last()),
		},
	}, nil
}

// Fig12 regenerates Figure 12: TPC-C throughput (committed statements/s)
// over time with the long-duration cursor.
func (s *Suite) Fig12() (*Report, error) {
	res, err := s.cursor()
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig12",
		Title: "TPC-C throughput with a long-duration cursor",
		Series: labeled(res, func(r *workload.Result) LabeledSeries {
			return LabeledSeries{Series: r.Throughput}
		}),
		Notes: []string{
			"paper shape: GT degrades over time (hash collisions); HG stays high",
			fmt.Sprintf("avg stmts/s: GT=%.0f GT+TG=%.0f HG=%.0f",
				res[workload.ModeGT].AvgThroughput(),
				res[workload.ModeGTTG].AvgThroughput(),
				res[workload.ModeHG].AvgThroughput()),
		},
	}, nil
}

// Fig13 regenerates Figure 13: the RID hash table collision ratio over time
// in the Figure 12 experiment.
func (s *Suite) Fig13() (*Report, error) {
	res, err := s.cursor()
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig13",
		Title: "hash collision ratio (version chains per bucket)",
		Series: labeled(res, func(r *workload.Result) LabeledSeries {
			return LabeledSeries{Series: r.Collision}
		}),
		Notes: []string{
			"paper shape: GT's ratio climbs (insert-created chains pile up); GT+TG and HG stay flat because STOCK updates reuse existing chains",
		},
	}, nil
}

// fetchTable renders per-FETCH observations for the three modes.
func fetchTable(res map[workload.Mode]*workload.Result, value func(workload.FetchSample) string) (header []string, rows [][]string) {
	header = []string{"fetch#"}
	longest := 0
	for _, m := range compared {
		header = append(header, m.String())
		if n := len(res[m].Fetches); n > longest {
			longest = n
		}
	}
	step := 1
	if longest > maxSeriesRows {
		step = (longest + maxSeriesRows - 1) / maxSeriesRows
	}
	for i := 0; i < longest; i += step {
		row := []string{fmt.Sprint(i)}
		for _, m := range compared {
			f := res[m].Fetches
			if i < len(f) {
				row = append(row, value(f[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return header, rows
}

// Fig14 regenerates Figure 14: latency of individual FETCH operations of an
// incremental query over time.
func (s *Suite) Fig14() (*Report, error) {
	res, err := s.fetch()
	if err != nil {
		return nil, err
	}
	header, rows := fetchTable(res, func(f workload.FetchSample) string {
		return fmt.Sprintf("%.2fms", f.Latency.Seconds()*1e3)
	})
	return &Report{
		ID:     "fig14",
		Title:  "latency of individual FETCH operations in a cursor",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"paper shape: GT and GT+TG latency grows fetch over fetch; HG stays near constant",
		},
	}, nil
}

// Fig15 regenerates Figure 15: record versions traversed by each FETCH.
func (s *Suite) Fig15() (*Report, error) {
	res, err := s.fetch()
	if err != nil {
		return nil, err
	}
	header, rows := fetchTable(res, func(f workload.FetchSample) string {
		return fmt.Sprint(f.Traversed)
	})
	return &Report{
		ID:     "fig15",
		Title:  "record versions traversed by individual FETCH operations",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"paper shape: mirrors Figure 14 — FETCH latency is driven by chain traversal",
		},
	}, nil
}

// Fig16 regenerates Figure 16: the latency of the scan query executed inside
// repeated long Trans-SI transactions.
func (s *Suite) Fig16() (*Report, error) {
	res, err := s.trans()
	if err != nil {
		return nil, err
	}
	header := []string{"mode", "scans", "mean", "max"}
	var rows [][]string
	for _, m := range compared {
		scans := res[m].TransSIScans
		var sum, max time.Duration
		for _, d := range scans {
			sum += d
			if d > max {
				max = d
			}
		}
		mean := time.Duration(0)
		if len(scans) > 0 {
			mean = sum / time.Duration(len(scans))
		}
		rows = append(rows, []string{m.String(), fmt.Sprint(len(scans)),
			fmt.Sprintf("%.2fms", mean.Seconds()*1e3),
			fmt.Sprintf("%.2fms", max.Seconds()*1e3)})
	}
	return &Report{
		ID:     "fig16",
		Title:  "latency of queries executed in Trans-SI transactions",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"paper shape: TG gains nothing over GT (scope unknown a priori); SI collects regardless, so HG is fastest",
		},
	}, nil
}

// Fig17 regenerates Figure 17: the number of record versions over time in
// the Trans-SI experiment (the saw-tooth plot).
func (s *Suite) Fig17() (*Report, error) {
	res, err := s.trans()
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig17",
		Title: "record versions over time under repeated Trans-SI transactions",
		Series: labeled(res, func(r *workload.Result) LabeledSeries {
			return LabeledSeries{Series: r.Versions}
		}),
		Notes: []string{
			"paper shape: saw-tooth — versions drop when each Trans-SI transaction ends and releases its snapshot; HG keeps the smallest population",
		},
	}, nil
}

// Ext1 is this reproduction's extension experiment X-1: the partition-level
// table collector (§4.3's "finer-granular object such as partitions", left
// as future work in HANA). The Figure 10 workload runs twice under GT+TG
// with STOCK partitioned four ways and the long cursor pruned to one
// partition: once with the cursor declaring only its table (HANA's
// implemented granularity), once declaring its partition scope. With
// partition scope, TG alone reclaims the other partitions' garbage, so the
// version population stays a fraction of the table-scoped run — without SI.
func (s *Suite) Ext1() (*Report, error) {
	run := func(parts []ts.PartitionID) (*workload.Result, error) {
		o := s.baseOptions(workload.ModeGTTG)
		o.LongCursor = true
		o.StockPartitions = 4
		o.CursorPartitions = parts
		return workload.Run(o)
	}
	tableScoped, err := run(nil)
	if err != nil {
		return nil, err
	}
	partScoped, err := run([]ts.PartitionID{0})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ext1",
		Title: "partition-level vs table-level table GC (GT+TG, cursor pruned to 1 of 4 STOCK partitions)",
		Series: []LabeledSeries{
			{Label: "table-scope", Series: tableScoped.Versions},
			{Label: "partition-scope", Series: partScoped.Versions},
		},
		Notes: []string{
			"extension of §4.3: with the cursor's partition scope declared, TG reclaims the other partitions' STOCK garbage that table-level TG must leave to SI",
			fmt.Sprintf("final versions: table-scope=%.0f partition-scope=%.0f",
				tableScoped.Versions.Last(), partScoped.Versions.Last()),
		},
	}, nil
}

// pace invokes the collectors on fixed periods, one ticker each, the way the
// paper's scheduler does (§4.4) and the engine's work-driven loop does not:
// the sweep below varies exactly these periods. A zero period leaves its
// collector out.
func pace(p gc.Periods) func(*gc.Hybrid) (stop func()) {
	return func(h *gc.Hybrid) func() {
		quit := make(chan struct{})
		var wg sync.WaitGroup
		for _, c := range []struct {
			period time.Duration
			run    func() gc.RunStats
		}{{p.GT, h.RunGT}, {p.TG, h.RunTG}, {p.SI, h.RunSI}} {
			if c.period <= 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(c.period)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						c.run()
					case <-quit:
						return
					}
				}
			}()
		}
		return func() { close(quit); wg.Wait() }
	}
}

// sweep runs the invocation-period sweep behind Figures 18 and 19. For each
// compared mode the mode's own collector period is swept while the others
// stay at their base values, exactly as §5.6 describes.
func (s *Suite) sweep(longCursor bool) (*Report, error) {
	// The paper sweeps 1 s..60 s periods over 1000 s runs; scaled, the
	// largest multiplier pushes the swept collector's period beyond the run
	// so its contribution vanishes (GT+TG then converges to GT, §5.6).
	multipliers := []int{1, 4, 16, 64}
	if s.cfg.Quick {
		multipliers = []int{1, 4}
	}
	header := []string{"period(xbase)"}
	for _, m := range compared {
		header = append(header, m.String())
	}
	var rows [][]string
	for _, k := range multipliers {
		row := []string{fmt.Sprintf("x%d", k)}
		for _, m := range compared {
			base := s.cfg.Base
			var p gc.Periods
			switch m {
			case workload.ModeGT:
				p = gc.Periods{GT: time.Duration(k) * base.GT}
			case workload.ModeGTTG:
				p = gc.Periods{GT: base.GT, TG: time.Duration(k) * base.TG}
			default: // HG
				p = gc.Periods{GT: base.GT, TG: base.TG, SI: time.Duration(k) * base.SI}
			}
			o := s.baseOptions(workload.ModeHG)
			o.StartGC = pace(p)
			o.LongCursor = longCursor
			res, err := workload.Run(o)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", res.AvgThroughput()))
		}
		rows = append(rows, row)
	}
	return &Report{Header: header, Rows: rows}, nil
}

// Fig18 regenerates Figure 18: TPC-C throughput while varying the
// collectors' invocation periods, without any long-duration snapshot.
func (s *Suite) Fig18() (*Report, error) {
	rep, err := s.sweep(false)
	if err != nil {
		return nil, err
	}
	rep.ID = "fig18"
	rep.Title = "throughput vs GC invocation period (no long snapshot)"
	rep.Notes = []string{
		"paper shape: sweeping TG's or SI's period changes nothing (GT at base period reclaims everything); sweeping GT's period drops throughput sharply",
	}
	return rep, nil
}

// Fig19 regenerates Figure 19: the same sweep with a long-duration cursor on
// STOCK.
func (s *Suite) Fig19() (*Report, error) {
	rep, err := s.sweep(true)
	if err != nil {
		return nil, err
	}
	rep.ID = "fig19"
	rep.Title = "throughput vs GC invocation period (long-duration cursor)"
	rep.Notes = []string{
		"paper shape: GT stays uniformly low (blocked); GT+TG decays as TG's period grows; HG is almost insensitive to SI's period",
	}
	return rep, nil
}
