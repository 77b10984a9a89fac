// Command hybridgc-bench regenerates the figures of the paper's evaluation
// section (§5). Each figure is one experiment over the modified TPC-C
// workload with the GT / GT+TG / HG collector configurations; the output is
// the same series or table the paper plots, plus a note stating the shape
// the paper reports.
//
// Usage:
//
//	hybridgc-bench -fig all
//	hybridgc-bench -fig 10,11,12,13 -duration 5s -warehouses 4
//	hybridgc-bench -fig 18 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hybridgc/internal/bench"
	"hybridgc/internal/profiling"
)

func main() {
	// flag.CommandLine exits on a bad command line itself.
	cfg, fig, prof, _ := parse(flag.CommandLine, os.Args[1:])
	if err := profiling.Start(prof); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer profiling.Stop()
	suite := bench.NewSuite(cfg)

	eff := suite.Config()
	fmt.Printf("hybridgc-bench: %d warehouses, %d items, %d customers/district, %v per run\n",
		eff.TPCC.Warehouses, eff.TPCC.Items, eff.TPCC.CustomersPerDistrict, eff.Duration)
	fmt.Printf("GC periods: GT=%v TG=%v SI=%v (paper: 1s/3s/10s)\n\n",
		eff.Base.GT, eff.Base.TG, eff.Base.SI)

	ids, err := resolveFigures(fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	for _, id := range ids {
		rep, err := suite.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			profiling.Stop()
			os.Exit(1)
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Stop()
			os.Exit(1)
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}

// parse turns the command line into the suite's configuration and the
// -fig selection. A size flag left at 0 keeps the suite's default for it;
// -seed always applies.
func parse(fs *flag.FlagSet, args []string) (cfg bench.SuiteConfig, fig string, prof profiling.Flags, err error) {
	fs.StringVar(&fig, "fig", "all", "figure number(s) to regenerate: e.g. 10 or 10,12,19 or all")
	fs.BoolVar(&cfg.Quick, "quick", false, "smoke-test scale (sub-second runs; the compared legs of figs 10-13, ext1 and ext2 run to equal committed work)")
	fs.DurationVar(&cfg.Duration, "duration", 0, "per-run workload duration (default 3s, quick 500ms)")
	fs.IntVar(&cfg.TPCC.Warehouses, "warehouses", 0, "TPC-C warehouses (default 4)")
	fs.IntVar(&cfg.TPCC.Items, "items", 0, "TPC-C items per warehouse (default 200)")
	fs.IntVar(&cfg.TPCC.CustomersPerDistrict, "customers", 0, "TPC-C customers per district (default 30)")
	fs.Int64Var(&cfg.TPCC.Seed, "seed", 7, "workload random seed")
	prof.Register(fs)
	err = fs.Parse(args)
	return cfg, fig, prof, err
}

// digitsOnly reports whether s is a plain figure number like "10".
func digitsOnly(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func resolveFigures(arg string) ([]string, error) {
	if arg == "all" {
		return bench.Figures(), nil
	}
	var ids []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id := part
		if digitsOnly(part) {
			id = "fig" + part
		}
		found := false
		for _, known := range bench.Figures() {
			if known == id {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown figure %q; available: %s", part, strings.Join(bench.Figures(), ", "))
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no figures selected")
	}
	return ids, nil
}
