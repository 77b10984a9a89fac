package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"hybridgc/internal/bench"
	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
)

// TestParse maps command lines to the suite configuration they run: -seed
// applies with or without a size flag, and a size flag overrides only its
// own default.
func TestParse(t *testing.T) {
	full := bench.SuiteConfig{
		TPCC:     tpcc.Config{Warehouses: 4, Districts: 4, CustomersPerDistrict: 30, Items: 200, Seed: 7},
		Base:     gc.DefaultPeriods(),
		LongLive: gc.DefaultLongLivedThreshold, Duration: 3 * time.Second, HashBuckets: 1 << 12,
	}
	quick := bench.SuiteConfig{
		TPCC:     tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 60, Seed: 7},
		Base:     gc.Periods{GT: 10 * time.Millisecond, TG: 30 * time.Millisecond, SI: 100 * time.Millisecond},
		LongLive: 20 * time.Millisecond, Duration: 500 * time.Millisecond, HashBuckets: 1 << 12, Quick: true,
	}
	with := func(c bench.SuiteConfig, edit func(*bench.SuiteConfig)) bench.SuiteConfig {
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		args string
		want bench.SuiteConfig
	}{
		{"", full},
		{"-seed 11", with(full, func(c *bench.SuiteConfig) { c.TPCC.Seed = 11 })},
		{"-quick -seed 3", with(quick, func(c *bench.SuiteConfig) { c.TPCC.Seed = 3 })},
		{"-warehouses 8 -seed 5 -duration 1s", with(full, func(c *bench.SuiteConfig) {
			c.TPCC.Warehouses, c.TPCC.Seed, c.Duration = 8, 5, time.Second
		})},
		{"-quick -items 90 -customers 12", with(quick, func(c *bench.SuiteConfig) {
			c.TPCC.Items, c.TPCC.CustomersPerDistrict = 90, 12
		})},
	} {
		fs := flag.NewFlagSet("hybridgc-bench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg, _, _, err := parse(fs, strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := bench.NewSuite(cfg).Config(); got != tc.want {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
}
