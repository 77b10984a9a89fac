// Version-space overflow (Figure 2): run the mixed workload with garbage
// collection disabled and print the HANA system-load-view indicators — the
// Active Versions count, the Active Commit ID Range, and the estimated
// memory — growing without bound, then the same run under HybridGC staying
// flat.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/workload"
)

const versionOverheadBytes = 96

func main() {
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, CustomersPerDistrict: 15, Items: 100, Seed: 9}
	for _, m := range []gc.Mode{gc.ModeNone, gc.ModeHG} {
		fmt.Printf("=== GC: %s ===\n", m)
		res, err := workload.Run(workload.Options{
			Mode:       m,
			TPCC:       cfg,
			Duration:   1200 * time.Millisecond,
			LongCursor: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-16s %-14s\n", "t", "Active Versions", "Used Memory")
		pts := res.Versions.Points
		step := 1
		if len(pts) > 10 {
			step = len(pts) / 10
		}
		for i := 0; i < len(pts); i += step {
			mem := int64(pts[i].Value) * versionOverheadBytes
			fmt.Printf("%-8s %-16.0f %.2fMiB\n",
				fmt.Sprintf("%.2fs", pts[i].Elapsed.Seconds()),
				pts[i].Value, float64(mem)/(1<<20))
		}
		fmt.Printf("Active CID Range at end: %d\n\n", res.Final.ActiveCIDRange)
	}
	fmt.Println("Figure 2's phenomenon: without GC (or with GC blocked), Active")
	fmt.Println("Versions and memory grow monotonically; HybridGC keeps them flat.")
}
