// Command benchmark is the repository's benchmark: closed-loop TPC-C against
// one of four deployment shapes, reporting end-to-end metrics (-trace 0) or
// the per-layer decomposition of a traced run (-trace 1). See README.md.
//
// Standard output carries exactly one line, the JSON result; everything else
// goes to standard error. Any failed check exits non-zero and prints no
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hybridgc/internal/tpcc"
)

func main() {
	name := flag.String("workload", "", "oltp_mem, htap_pin, wire_durable or shard_cross")
	seed := flag.Int64("seed", 7, "feeds tpcc.Config.Seed and nothing else")
	seconds := flag.Float64("seconds", 25, "length of the measured window, cut into ten slices")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for WAL files and trace_<workload>.jsonl")
	flag.Parse()

	spec, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload oltp_mem|htap_pin|wire_durable|shard_cross [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
		os.Exit(2)
	}
	line, err := run(spec, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run performs one run of one workload and returns the result line.
func run(spec workloadSpec, seed int64, length time.Duration, trace bool, outDir string) (string, error) {
	runtime.GOMAXPROCS(maxProcs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	r := &runner{spec: spec, base: time.Now()}
	if trace {
		r.tr = newTracer(r.base, spec.wire, length)
	}
	fmt.Fprintf(os.Stderr, "%s: seed %d, window %v in %d slices, %d closed-loop workers, GOMAXPROCS %d of %d CPUs, traced %v\n",
		spec.name, seed, length, slices, workers, maxProcs, runtime.NumCPU(), trace)
	if spec.wire {
		fmt.Fprintf(os.Stderr, "%s: WAL under %s, flushed to the OS on every commit group, fsync %v\n", spec.name, outDir, walSync)
	}

	// Set up setupReps times and keep the last: setup_s is the median.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r.dep != nil {
			r.dep.close()
		}
		t0 := time.Now()
		dep, err := deploy(spec, seed, r.tr, outDir)
		if err != nil {
			return "", fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.dep = dep
	}
	defer r.dep.close()
	setupS, _ := median(setups)

	slice := int64(length) / slices
	if err := r.measure(time.Duration(slice)); err != nil {
		return "", err
	}
	if err := r.dep.drv.Check(); err != nil {
		return "", fmt.Errorf("TPC-C consistency: %w", err)
	}
	var recoveryS float64
	if spec.wire {
		var acked [nProfiles]int64
		for _, wk := range r.workers {
			for p := range acked {
				acked[p] += wk.Stats.Committed[p].Load()
			}
		}
		took, err := r.dep.checkRecovery(acked[tpcc.TxnNewOrder], acked[tpcc.TxnPayment])
		if err != nil {
			return "", fmt.Errorf("recovery: %w", err)
		}
		recoveryS = took.Seconds()
	}

	w := r.cut(slice)
	fmt.Fprintf(os.Stderr, "%s: committed per second, by slice: %.0f\n", spec.name, w.tps(everySlice))
	defs := endToEnd
	var v values
	var err error
	if trace {
		defs = perLayer
		if v, err = r.perLayerValues(w, recoveryS); err == nil {
			err = r.tr.writeJSONL(filepath.Join(outDir, "trace_"+spec.name+".jsonl"))
		}
	} else {
		v, err = r.endToEndValues(w, setupS)
	}
	if err != nil {
		return "", err
	}
	metrics, err := result(defs, v)
	if err != nil {
		return "", err
	}
	report(defs, v)
	// failed leaves out aborted New-Orders: TPC-C rolls 1 % of them back on
	// purpose, so their count follows throughput. tpcc.fail_frac includes them.
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": w.attempted,
		"failed":    w.abortedOther,
		"metrics":   metrics,
	})
	return string(line), err
}

// report prints every metric by name with its unit, for people.
func report(defs []metricDef, v values) {
	defs = append([]metricDef(nil), defs...)
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", d.name, v[d.name], d.unit)
	}
}
