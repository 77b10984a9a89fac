package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"hybridgc/internal/tpcc"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// BENCHMARK.json fixes the bound of each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"version_residence_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A layer the workload does
// not use reads 0.
var perLayer = []metricDef{
	{"tpcc.txn_us", "us"}, {"tpcc.self_us", "us"},
	// Demoted from end to end by the noise study (NOISE.md).
	{"tpcc.neworder_p50_us", "us"}, {"tpcc.neworder_p99_us", "us"},
	{"tpcc.payment_p50_us", "us"}, {"tpcc.payment_p99_us", "us"},
	{"tpcc.neworder_samples", "count"}, {"tpcc.neworder_tail_pct", "%"}, {"tpcc.neworder_tail_us", "us"},
	{"tpcc.payment_samples", "count"}, {"tpcc.payment_tail_pct", "%"}, {"tpcc.payment_tail_us", "us"},
	{"tpcc.scan_p50_ms", "ms"}, {"tpcc.fail_frac", "frac"},

	{"engine.begin_us", "us"}, {"engine.get_us", "us"}, {"engine.update_us", "us"},
	{"engine.insert_us", "us"}, {"engine.delete_us", "us"}, {"engine.scan_us", "us"},
	{"engine.commit_us", "us"}, {"engine.ops_per_txn", "count"}, {"engine.busy_us_per_txn", "us"},

	{"go.allocs_per_txn", "count"}, {"go.alloc_kb_per_txn", "kB"}, {"go.gc_cpu_frac", "frac"},
	{"go.heap_live_mb", "MB"}, {"go.nproc", "count"},

	{"gc.gt.runs", "count"}, {"gc.tg.runs", "count"}, {"gc.si.runs", "count"},
	{"gc.gt.reclaimed", "count"}, {"gc.tg.reclaimed", "count"}, {"gc.si.reclaimed", "count"},
	{"gc.gt.busy_ms", "ms"}, {"gc.tg.busy_ms", "ms"}, {"gc.si.busy_ms", "ms"},
	{"gc.si.chains_scanned", "count"}, {"gc.si.us_per_reclaimed", "us"}, {"gc.busy_frac", "frac"},
	{"gc.reclaim_ratio", "ratio"}, {"gc.si.useful_ratio", "ratio"},

	{"sts.active_snapshots_mean", "count"}, {"sts.active_cid_range_mean", "count"},
	{"sts.horizon_lag_mean", "count"},

	{"mvcc.versions_live_mean", "count"}, {"mvcc.versions_live_max", "count"},
	{"mvcc.versions_live_mb_mean", "MB"}, {"mvcc.versions_created", "count"},
	{"mvcc.versions_reclaimed", "count"}, {"mvcc.hash_collision_ratio_mean", "ratio"},
	{"mvcc.traversed_per_stmt", "count"}, {"mvcc.group_list_len_mean", "count"},
	{"table.versions_migrated", "count"},

	{"core.fetch_p50_us", "us"}, {"core.fetch_traversed_per_row", "count"},

	{"txn.groups", "count"}, {"txn.txns_per_group", "count"}, {"txn.aborted", "count"},

	{"client.rt_us", "us"}, {"client.rt_p50_us", "us"}, {"client.rt_p99_us", "us"},
	{"client.rts_per_txn", "count"}, {"client.busy_us_per_txn", "us"},
	{"server.req_us", "us"}, {"server.req_p99_us", "us"}, {"server.requests", "count"},
	{"server.request_errors", "count"}, {"server.self_us_per_req", "us"},
	{"wire.us_per_rt", "us"}, {"wire.bytes_in_per_txn", "B"}, {"wire.bytes_out_per_txn", "B"},

	{"wal.records", "count"}, {"wal.batches", "count"}, {"wal.syncs", "count"},
	{"wal.records_per_sync", "count"}, {"wal.bytes_per_txn", "B"}, {"wal.recovery_s", "s"},

	{"shard.cross_frac", "frac"}, {"shard.txn_home_us", "us"}, {"shard.txn_cross_us", "us"},
	{"shard.commit_home_us", "us"}, {"shard.commit_cross_us", "us"},

	{"trace.overhead_frac", "frac"}, {"trace.sum_ratio", "ratio"},
	{"trace.spans_kept", "count"}, {"trace.spans_dropped", "count"},
}

// window is the measured part of a run, cut into slices by nominal time.
type window struct {
	start, slice int64 // ns since base; ns
	committed    [slices]int64
	lat          [slices][nProfiles][]float64 // committed latencies, µs
	rootSum      [slices]int64                // Σ RunOne time, ns, every outcome
	roots        [slices]int64

	attempted, aborted, abortedOther int64
	cross, home                      opAgg // committed RunOne time by path
}

func (r *runner) cut(slice int64) *window {
	w := &window{start: r.bounds[0].t, slice: slice}
	for _, rec := range r.recs {
		for _, s := range rec.samples {
			k := (int64(s.endUS)*1e3 - w.start) / slice
			if int64(s.endUS)*1e3 < w.start || k >= slices {
				continue
			}
			w.attempted++
			w.roots[k]++
			w.rootSum[k] += int64(s.durNS)
			if !s.ok {
				w.aborted++
				if tpcc.TxnType(s.profile) != tpcc.TxnNewOrder {
					w.abortedOther++
				}
				continue
			}
			w.committed[k]++
			w.lat[k][s.profile] = append(w.lat[k][s.profile], float64(s.durNS)/1e3)
			path := &w.home
			if s.cross {
				path = &w.cross
			}
			path.cnt++
			path.sum += int64(s.durNS)
		}
	}
	return w
}

func (w *window) totalCommitted() (n int64) {
	for _, c := range w.committed {
		n += c
	}
	return n
}

func (w *window) seconds() float64 { return float64(w.slice) * slices / 1e9 }

// tps is the committed rate of each slice whose index keep accepts.
func (w *window) tps(keep func(k int) bool) []float64 {
	var out []float64
	for k, c := range w.committed {
		if keep(k) {
			out = append(out, float64(c)/(float64(w.slice)/1e9))
		}
	}
	return out
}

// slicePercentile is the median, over the untraced slices, of one profile's
// p-th percentile latency: one slice hit by a neighbour moves a whole-window
// p99, but not the median of five.
func (w *window) slicePercentile(profile tpcc.TxnType, p float64) (float64, error) {
	var per []float64
	for k := range w.lat {
		if !untraced(k) {
			continue
		}
		v, err := percentile(sortedCopy(w.lat[k][profile]), p)
		if err != nil {
			return 0, fmt.Errorf("%v p%v, slice %d: %w", profile, p, k, err)
		}
		per = append(per, v)
	}
	return median(per)
}

func (w *window) all(profile tpcc.TxnType) []float64 {
	var out []float64
	for k := range w.lat {
		out = append(out, w.lat[k][profile]...)
	}
	sort.Float64s(out)
	return out
}

func (w *window) holds(end int64) bool {
	return end >= w.start && end < w.start+w.slice*slices
}

// sliceOf is the index of the slice an event that ended at end falls in; the
// caller has checked that the window holds it.
func (w *window) sliceOf(end int64) int { return int((end - w.start) / w.slice) }

type values map[string]float64

// endToEndValues computes the untraced run's metrics.
func (r *runner) endToEndValues(w *window, setupS float64) (values, error) {
	v := values{"setup_s": setupS}
	var err error
	if v["txn_per_s"], err = median(w.tps(everySlice)); err != nil {
		return nil, err
	}

	// Little's law: mean versions waiting ÷ arrival rate = mean wait.
	first, last := r.bounds[0], r.bounds[len(r.bounds)-1]
	created := float64(last.eng.created - first.eng.created)
	if r.liveN == 0 || created == 0 {
		return nil, fmt.Errorf("version_residence_ms: %d samples, %v versions created", r.liveN, created)
	}
	v["version_residence_ms"] = float64(r.liveSum) / float64(r.liveN) / (created / (w.seconds() * 1e3))
	return v, nil
}

func everySlice(int) bool { return true }

// A traced run records spans on half of its slices, in the order T U U T T U
// U T T U: each pair of neighbours has one of each, and which comes first
// alternates, so a throughput that drifts over the window (it falls as the
// tables grow) favours neither side.
func traced(k int) bool   { return k%4 == 0 || k%4 == 3 }
func untraced(k int) bool { return !traced(k) }

// sumOver adds f's delta across every slice keep accepts.
func (r *runner) sumOver(keep func(int) bool, f func(c *counters) float64) (sum float64) {
	for k := 0; k < slices; k++ {
		if keep(k) {
			sum += f(&r.bounds[k+1]) - f(&r.bounds[k])
		}
	}
	return sum
}

// perLayerValues computes the traced run's metrics.
func (r *runner) perLayerValues(w *window, recoveryS float64) (values, error) {
	v := make(values, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0 // a layer the workload does not use
	}
	tr := r.tr
	first, last := r.bounds[0], r.bounds[slices]
	delta := func(f func(c *counters) float64) float64 { return f(&last) - f(&first) }

	// Transactions, as the workers saw them on the traced slices.
	var roots, rootSum, committedU float64
	for k := 0; k < slices; k++ {
		if traced(k) {
			roots += float64(w.roots[k])
			rootSum += float64(w.rootSum[k])
		} else {
			committedU += float64(w.committed[k])
		}
	}
	committed := float64(w.totalCommitted())
	if roots == 0 || committed == 0 {
		return nil, fmt.Errorf("no transactions on the traced slices")
	}
	v["tpcc.txn_us"] = rootSum / roots / 1e3
	var err error
	for _, m := range []struct {
		name    string
		profile tpcc.TxnType
		p       float64
	}{
		{"tpcc.neworder_p50_us", tpcc.TxnNewOrder, 50}, {"tpcc.neworder_p99_us", tpcc.TxnNewOrder, 99},
		{"tpcc.payment_p50_us", tpcc.TxnPayment, 50}, {"tpcc.payment_p99_us", tpcc.TxnPayment, 99},
	} {
		if v[m.name], err = w.slicePercentile(m.profile, m.p); err != nil {
			return nil, err
		}
	}
	for _, p := range []struct {
		name    string
		profile tpcc.TxnType
	}{{"neworder", tpcc.TxnNewOrder}, {"payment", tpcc.TxnPayment}} {
		lat := w.all(p.profile)
		if len(lat) == 0 {
			return nil, fmt.Errorf("no committed %v in the window", p.profile)
		}
		pct, val := tailPercentile(lat)
		v["tpcc."+p.name+"_samples"] = float64(len(lat))
		v["tpcc."+p.name+"_tail_pct"] = pct
		v["tpcc."+p.name+"_tail_us"] = val
	}

	v["tpcc.fail_frac"] = float64(w.aborted) / float64(w.attempted)
	if r.spec.pin {
		var scans []float64
		for _, s := range r.scans {
			if w.holds(s.end) && untraced(w.sliceOf(s.end)) {
				scans = append(scans, float64(s.dur)/1e6)
			}
		}
		if v["tpcc.scan_p50_ms"], err = median(scans); err != nil {
			return nil, fmt.Errorf("tpcc.scan_p50_ms: %w", err)
		}
	}

	// engine.*: spans around engine.Tx. Scans are the analyst's.
	eng := &tr.engine
	for k, name := range opNames {
		if opKind(k) == opAbort {
			continue
		}
		class := &eng.tpcc
		if opKind(k) == opScan {
			class = &eng.analyst
		}
		v["engine."+name+"_us"] = class[k].meanUS()
	}
	engOps, engBusy := eng.tpcc.busy()
	v["engine.ops_per_txn"] = float64(engOps) / roots
	v["engine.busy_us_per_txn"] = float64(engBusy) / roots / 1e3

	// go.*: on the untraced slices, so the tracer's own garbage is left out.
	v["go.allocs_per_txn"] = ratio(r.sumOver(untraced, func(c *counters) float64 { return float64(c.mallocs) }), committedU)
	v["go.alloc_kb_per_txn"] = ratio(r.sumOver(untraced, func(c *counters) float64 { return float64(c.allocBytes) }), committedU) / 1024
	v["go.gc_cpu_frac"] = delta(func(c *counters) float64 { return c.gcCPU }) / (w.seconds() * float64(runtime.GOMAXPROCS(0)))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	v["go.heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	v["go.nproc"] = float64(runtime.NumCPU())

	// gc.*: counts from gc.Totals, times from the pacer.
	var gcBusy float64
	for k, name := range [3]string{"gt", "tg", "si"} {
		k := k
		v["gc."+name+".runs"] = delta(func(c *counters) float64 { return float64(c.gcRuns[k]) })
		v["gc."+name+".reclaimed"] = delta(func(c *counters) float64 { return float64(c.gcReclaimed[k]) })
		v["gc."+name+".busy_ms"] = float64(r.gcs[k].busy) / 1e6
		gcBusy += float64(r.gcs[k].busy)
	}
	si := r.gcs[2]
	created := delta(func(c *counters) float64 { return float64(c.eng.created) })
	reclaimed := delta(func(c *counters) float64 { return float64(c.eng.reclaimed) })
	v["gc.si.chains_scanned"] = float64(si.chains)
	v["gc.si.us_per_reclaimed"] = ratio(float64(si.busy)/1e3, float64(si.reclaimed))
	v["gc.si.useful_ratio"] = ratio(float64(si.reclaimed), float64(si.chains))
	v["gc.busy_frac"] = gcBusy / (w.seconds() * 1e9)
	v["gc.reclaim_ratio"] = ratio(reclaimed, created)

	// sts.*, mvcc.*: sampled Stats().
	n := float64(r.statN)
	if n == 0 || r.liveN == 0 {
		return nil, fmt.Errorf("the sampler took no samples")
	}
	v["sts.active_snapshots_mean"] = r.statSum.activeSnaps / n
	v["sts.active_cid_range_mean"] = r.statSum.cidRange / n
	v["sts.horizon_lag_mean"] = r.statSum.horizonLag / n
	v["mvcc.versions_live_mean"] = float64(r.liveSum) / float64(r.liveN)
	v["mvcc.versions_live_max"] = float64(r.liveMax)
	v["mvcc.versions_live_mb_mean"] = float64(r.statSum.liveBytes) / n / (1 << 20)
	v["mvcc.versions_created"] = created
	v["mvcc.versions_reclaimed"] = reclaimed
	v["mvcc.hash_collision_ratio_mean"] = r.statSum.collision / n
	v["mvcc.traversed_per_stmt"] = ratio(delta(func(c *counters) float64 { return float64(c.eng.traversed) }),
		delta(func(c *counters) float64 { return float64(c.eng.statements) }))
	v["mvcc.group_list_len_mean"] = r.statSum.groupList / n
	v["table.versions_migrated"] = delta(func(c *counters) float64 { return float64(c.eng.migrated) })

	// core.*: the held cursor's FETCH calls (htap_pin).
	var fetch []float64
	var rows, traversed float64
	for _, f := range r.fetches {
		if w.holds(f.end) && f.rows > 0 {
			fetch = append(fetch, float64(f.dur)/1e3)
			rows += float64(f.rows)
			traversed += float64(f.traversed)
		}
	}
	if len(fetch) > 0 {
		v["core.fetch_p50_us"], _ = median(fetch)
	} else if r.spec.pin {
		return nil, fmt.Errorf("the held cursor fetched nothing in the window")
	}
	v["core.fetch_traversed_per_row"] = ratio(traversed, rows)

	groups := delta(func(c *counters) float64 { return float64(c.eng.groups) })
	v["txn.groups"] = groups
	v["txn.txns_per_group"] = ratio(delta(func(c *counters) float64 { return float64(c.eng.txns) }), groups)
	v["txn.aborted"] = delta(func(c *counters) float64 { return float64(c.eng.aborted) })

	// tpcc.self: a tpcc.run_one span minus the operation spans beneath it,
	// averaged over every transaction of the traced slices — the driver's own
	// codec, random draws and bookkeeping.
	outer := engBusy
	if r.spec.wire {
		_, outer = tr.client.tpcc.busy()
	}
	v["tpcc.self_us"] = (rootSum - float64(outer)) / roots / 1e3
	parts := v["tpcc.self_us"] + v["engine.busy_us_per_txn"]

	// client.*, server.*, wire.*: wire_durable only.
	if r.spec.wire {
		cli := &tr.client
		rts, busy := cli.tpcc.busy()
		calls := make([]float64, min(cli.ncalls.Load(), int64(len(cli.calls))))
		for i := range calls {
			calls[i] = float64(cli.calls[i]) / 1e3
		}
		sort.Float64s(calls)
		if v["client.rt_p50_us"], err = percentile(calls, 50); err != nil {
			return nil, fmt.Errorf("client.rt_p50_us: %w", err)
		}
		v["client.rt_p99_us"], _ = percentile(calls, 99)
		v["client.rt_us"] = ratio(float64(busy), float64(rts)) / 1e3
		v["client.rts_per_txn"] = float64(rts) / roots
		v["client.busy_us_per_txn"] = float64(busy) / roots / 1e3

		// The server's histogram keeps a lifetime mean; mean × count is its
		// sum, which differences like any counter.
		reqs := r.sumOver(traced, func(c *counters) float64 { return float64(c.srv.Requests) })
		reqNS := r.sumOver(traced, func(c *counters) float64 { return float64(c.srv.LatMean) * float64(c.srv.Requests) })
		v["server.req_us"] = ratio(reqNS, reqs) / 1e3
		v["server.req_p99_us"] = float64(last.srv.LatP99) / 1e3
		v["server.requests"] = r.sumOver(everySlice, func(c *counters) float64 { return float64(c.srv.Requests) })
		v["server.request_errors"] = r.sumOver(everySlice, func(c *counters) float64 { return float64(c.srv.RequestErrors) })
		v["server.self_us_per_req"] = v["server.req_us"] - ratio(float64(engBusy), reqs)/1e3
		v["wire.us_per_rt"] = v["client.rt_us"] - v["server.req_us"]
		v["wire.bytes_in_per_txn"] = delta(func(c *counters) float64 { return float64(c.srv.BytesIn) }) / committed
		v["wire.bytes_out_per_txn"] = delta(func(c *counters) float64 { return float64(c.srv.BytesOut) }) / committed
		parts = v["tpcc.self_us"] + v["client.rts_per_txn"]*(v["wire.us_per_rt"]+v["server.self_us_per_req"]) +
			v["engine.busy_us_per_txn"]
	}

	syncs := delta(func(c *counters) float64 { return float64(c.walSyncs) })
	v["wal.records"] = delta(func(c *counters) float64 { return float64(c.walRecords) })
	v["wal.batches"] = delta(func(c *counters) float64 { return float64(c.walBatches) })
	v["wal.syncs"] = syncs
	v["wal.records_per_sync"] = ratio(v["wal.records"], syncs)
	v["wal.bytes_per_txn"] = delta(func(c *counters) float64 { return float64(c.walBytes) }) / committed
	v["wal.recovery_s"] = recoveryS

	// shard.*: a commit is on the cross path when its transaction began
	// through the router (Begin) and not pinned to its home shard.
	if r.spec.sharded {
		v["shard.cross_frac"] = float64(w.cross.cnt) / committed
		v["shard.txn_home_us"] = w.home.meanUS()
		v["shard.txn_cross_us"] = w.cross.meanUS()
		v["shard.commit_home_us"] = eng.commitPinned.meanUS()
		v["shard.commit_cross_us"] = eng.commitRouted.meanUS()
	}

	// The median over the five pairs of traced ÷ untraced throughput: one
	// slice hit by a neighbour spoils one pair, not the figure.
	tps := w.tps(everySlice)
	var pairs []float64
	for k := 0; k+1 < slices; k += 2 {
		t, u := tps[k], tps[k+1]
		if untraced(k) {
			t, u = u, t
		}
		if u == 0 {
			return nil, fmt.Errorf("no throughput on untraced slice %d", k)
		}
		pairs = append(pairs, t/u)
	}
	keep, _ := median(pairs)
	v["trace.overhead_frac"] = 1 - keep
	v["trace.sum_ratio"] = parts / v["tpcc.txn_us"]
	v["trace.spans_kept"] = float64(len(tr.sink))
	v["trace.spans_dropped"] = float64(tr.dropped)
	return v, nil
}

// result renders values in the order defs names them, refusing a missing or
// non-finite value.
func result(defs []metricDef, v values) (map[string]any, error) {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = map[string]any{"value": x, "unit": d.unit}
	}
	return out, nil
}
