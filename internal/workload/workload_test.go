package workload

import (
	"runtime"
	"testing"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
)

func tinyTPCC() tpcc.Config {
	return tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 60, Seed: 7}
}

// mustRun runs o over tinyTPCC and fails the test on a run error.
func mustRun(t *testing.T, o Options) *Result {
	t.Helper()
	o.TPCC = tinyTPCC()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestModePeriods(t *testing.T) {
	base := gc.Periods{GT: 1, TG: 2, SI: 3}
	if p := gc.ModeGT.Periods(base); p != (gc.Periods{GT: 1}) {
		t.Fatalf("GT periods = %+v", p)
	}
	if p := gc.ModeGTTG.Periods(base); p != (gc.Periods{GT: 1, TG: 2}) {
		t.Fatalf("GT+TG periods = %+v", p)
	}
	if p := gc.ModeHG.Periods(base); p != base {
		t.Fatalf("HG periods = %+v", p)
	}
	if p := gc.ModeNone.Periods(base); p != (gc.Periods{}) {
		t.Fatalf("none periods = %+v", p)
	}
	if gc.ModeGT.String() != "GT" || gc.ModeGTTG.String() != "GT+TG" || gc.ModeHG.String() != "HG" || gc.ModeNone.String() != "none" {
		t.Fatal("mode names broken")
	}
}

func TestRunBasicOLTPOnly(t *testing.T) {
	res := mustRun(t, Options{Mode: gc.ModeHG, Duration: 400 * time.Millisecond})
	if res.Committed == 0 || res.WorkersCommitted == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if len(res.Versions.Points) < 3 {
		t.Fatalf("too few samples: %d", len(res.Versions.Points))
	}
	if res.AvgThroughput() <= 0 {
		t.Fatal("zero throughput")
	}
	// Without a blocker, HG keeps the version space small relative to what
	// was created.
	if res.Final.VersionsReclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
}

func TestLongCursorShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	run := func(m gc.Mode) *Result {
		return mustRun(t, Options{
			Mode: m,
			// Faster-than-default periods so SI fires several times within
			// the short test window; the ratio GT:TG:SI stays 1:3:10.
			Base:               gc.Periods{GT: 20 * time.Millisecond, TG: 60 * time.Millisecond, SI: 200 * time.Millisecond},
			LongLivedThreshold: 40 * time.Millisecond,
			Duration:           900 * time.Millisecond,
			LongCursor:         true,
		})
	}
	gt := run(gc.ModeGT)
	hg := run(gc.ModeHG)

	// Figure 10's shape: with the long cursor, GT's version count keeps
	// growing while HG stays near-flat.
	if gt.Versions.Last() < 3*hg.Versions.Last() {
		t.Fatalf("GT versions %.0f should dwarf HG versions %.0f",
			gt.Versions.Last(), hg.Versions.Last())
	}
	// Figure 11's shape: under HG, TG and SI do real work in the presence of
	// a cursor (GT is mostly blocked).
	if hg.ReclaimedTG.Last() == 0 || hg.ReclaimedSI.Last() == 0 {
		t.Fatalf("HG per-collector totals: GT=%.0f TG=%.0f SI=%.0f",
			hg.ReclaimedGT.Last(), hg.ReclaimedTG.Last(), hg.ReclaimedSI.Last())
	}
}

func TestIncrementalFetch(t *testing.T) {
	res := mustRun(t, Options{
		Mode:       gc.ModeHG,
		Duration:   600 * time.Millisecond,
		LongCursor: true,
		Fetch:      &FetchOptions{Size: 10, Think: 20 * time.Millisecond},
	})
	if len(res.Fetches) < 3 {
		t.Fatalf("only %d fetches", len(res.Fetches))
	}
	for i, f := range res.Fetches {
		if f.Index != i {
			t.Fatalf("fetch indices out of order: %+v", res.Fetches)
		}
	}
}

func TestTransSIScenario(t *testing.T) {
	res := mustRun(t, Options{
		Mode:     gc.ModeHG,
		Duration: 700 * time.Millisecond,
		TransSI:  &TransSIOptions{Sleep: 80 * time.Millisecond},
	})
	if len(res.TransSIScans) == 0 {
		t.Fatal("no Trans-SI scans completed")
	}
	for _, lat := range res.TransSIScans {
		if lat <= 0 {
			t.Fatalf("bad scan latency %v", lat)
		}
	}
}

func TestModeNoneOverflows(t *testing.T) {
	res := mustRun(t, Options{Mode: gc.ModeNone, Duration: 300 * time.Millisecond})
	// Figure 2's phenomenon: without GC the version space only grows.
	if res.Final.VersionsReclaimed != 0 {
		t.Fatal("ModeNone must not reclaim")
	}
	if res.Versions.Last() == 0 {
		t.Fatal("version space should have grown")
	}
}

// TestRunErrorLeavesNothingRunning: a cursor pruned to partitions of an
// unpartitioned STOCK cannot be opened. Run must say so, and must not leave
// workers, readers or the collector running behind the returned error.
func TestRunErrorLeavesNothingRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := Run(Options{
		Mode:             gc.ModeHG,
		TPCC:             tinyTPCC(),
		Duration:         200 * time.Millisecond,
		LongCursor:       true,
		CursorPartitions: []ts.PartitionID{0},
	})
	if err == nil {
		t.Fatal("a partition cursor over unpartitioned STOCK must fail the run")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the error, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
