// Long-cursor scenario (§5.2): a mixed OLTP/OLAP workload where an analytic
// client holds a cursor over STOCK while TPC-C traffic updates it. The
// example runs the same workload under GT-only and under full HybridGC and
// prints the version-space population side by side — the phenomenon of
// Figure 10.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/workload"
)

func main() {
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, CustomersPerDistrict: 15, Items: 100, Seed: 3}
	run := func(m gc.Mode) *workload.Result {
		res, err := workload.Run(workload.Options{
			Mode:       m,
			TPCC:       cfg,
			Duration:   1500 * time.Millisecond,
			LongCursor: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("running TPC-C with a long-duration cursor on STOCK...")
	gt := run(gc.ModeGT)
	hg := run(gc.ModeHG)

	fmt.Printf("\n%-8s %-14s %-14s\n", "t", "GT versions", "HG versions")
	n := len(gt.Versions.Points)
	if len(hg.Versions.Points) < n {
		n = len(hg.Versions.Points)
	}
	step := 1
	if n > 15 {
		step = n / 15
	}
	for i := 0; i < n; i += step {
		fmt.Printf("%-8s %-14.0f %-14.0f\n",
			fmt.Sprintf("%.2fs", gt.Versions.Points[i].Elapsed.Seconds()),
			gt.Versions.Points[i].Value, hg.Versions.Points[i].Value)
	}
	fmt.Printf("\nGT ends with %.0f live versions (cursor blocks everything);\n", gt.Versions.Last())
	fmt.Printf("HybridGC ends with %.0f: the table collector confines the cursor to STOCK\n", hg.Versions.Last())
	fmt.Printf("and the interval collector trims STOCK's own chains.\n")
	fmt.Printf("\nHG reclaim breakdown: GT=%.0f TG=%.0f SI=%.0f (the paper's Figure 11)\n",
		hg.ReclaimedGT.Last(), hg.ReclaimedTG.Last(), hg.ReclaimedSI.Last())
	fmt.Printf("throughput: GT %.0f stmts/s vs HG %.0f stmts/s\n",
		gt.AvgThroughput(), hg.AvgThroughput())
}
