package bench

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/workload"
)

// SuiteConfig scales the experiment suite. A zero field — or a zero size or
// seed inside TPCC — selects its default; Quick selects the smoke-test
// defaults instead, for quick runs and testing.B use.
type SuiteConfig struct {
	TPCC     tpcc.Config
	Base     gc.Periods
	LongLive time.Duration
	// Duration is the per-run workload duration.
	Duration time.Duration
	// HashBuckets sizes the RID hash table; smaller tables make Figure 13's
	// collision effect visible sooner.
	HashBuckets int
	// Quick selects the smoke-test scale. At it the experiments whose legs
	// the tests compare — the cursor experiment (Figures 10–13), ext1 and
	// ext2 — run each leg to the same committed work (quickTransactions,
	// quickWrites) instead of for Duration, so a leg that got less CPU is not a leg that
	// did less.
	Quick bool
}

// quickTransactions and quickWrites are the committed work each compared leg
// runs to at the Quick scale: TPC-C transactions in the cursor experiment
// and ext1, one-row updates in ext2. An update is about a tenth of a TPC-C
// transaction, and an ext2 leg must last long enough — a few hundred
// milliseconds — for its analysts, writers and migrator to share the cores
// fairly.
const (
	quickTransactions = 4000
	quickWrites       = 40000
)

func (c *SuiteConfig) fill() {
	def := SuiteConfig{
		TPCC:     tpcc.Config{Warehouses: 4, Districts: 4, CustomersPerDistrict: 30, Items: 200, Seed: 7},
		Base:     gc.DefaultPeriods(),
		LongLive: gc.DefaultLongLivedThreshold,
		Duration: 3 * time.Second,
	}
	if c.Quick {
		def = SuiteConfig{
			TPCC:     tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 60, Seed: 7},
			Base:     gc.Periods{GT: 10 * time.Millisecond, TG: 30 * time.Millisecond, SI: 100 * time.Millisecond},
			LongLive: 20 * time.Millisecond,
			Duration: 500 * time.Millisecond,
		}
	}
	t := &c.TPCC
	t.Warehouses = cmp.Or(t.Warehouses, def.TPCC.Warehouses)
	t.Districts = cmp.Or(t.Districts, def.TPCC.Districts)
	t.CustomersPerDistrict = cmp.Or(t.CustomersPerDistrict, def.TPCC.CustomersPerDistrict)
	t.Items = cmp.Or(t.Items, def.TPCC.Items)
	t.Seed = cmp.Or(t.Seed, def.TPCC.Seed)
	c.Base = cmp.Or(c.Base, def.Base)
	c.LongLive = cmp.Or(c.LongLive, def.LongLive)
	c.Duration = cmp.Or(c.Duration, def.Duration)
	c.HashBuckets = cmp.Or(c.HashBuckets, 1<<12)
}

// Modes compared throughout §5.
var compared = []gc.Mode{gc.ModeGT, gc.ModeGTTG, gc.ModeHG}

// Suite runs and caches the experiments behind the figures.
type Suite struct {
	cfg SuiteConfig

	mu   sync.Mutex
	runs map[string]map[gc.Mode]*workload.Result // experiment name → mode → result
}

// NewSuite creates a suite with the given configuration.
func NewSuite(cfg SuiteConfig) *Suite {
	cfg.fill()
	return &Suite{cfg: cfg, runs: make(map[string]map[gc.Mode]*workload.Result)}
}

// Config returns the effective configuration.
func (s *Suite) Config() SuiteConfig { return s.cfg }

func (s *Suite) baseOptions(m gc.Mode) workload.Options {
	return workload.Options{
		Mode:               m,
		Base:               s.cfg.Base,
		LongLivedThreshold: s.cfg.LongLive,
		TPCC:               s.cfg.TPCC,
		HashBuckets:        s.cfg.HashBuckets,
		Duration:           s.cfg.Duration,
		SampleInterval:     s.cfg.Duration / 30,
	}
}

// experiment lazily runs the named experiment once per compared mode, with
// the readers configure adds to the base options; figures that share an
// experiment share its runs.
func (s *Suite) experiment(name string, configure func(*workload.Options)) (map[gc.Mode]*workload.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if out, ok := s.runs[name]; ok {
		return out, nil
	}
	out := make(map[gc.Mode]*workload.Result, len(compared))
	for _, m := range compared {
		o := s.baseOptions(m)
		configure(&o)
		res, err := workload.Run(o)
		if err != nil {
			return nil, fmt.Errorf("%s experiment, mode %s: %w", name, m, err)
		}
		out[m] = res
	}
	s.runs[name] = out
	return out, nil
}

// cursor is the §5.2 experiment: TPC-C plus a long-duration cursor on STOCK.
func (s *Suite) cursor() (map[gc.Mode]*workload.Result, error) {
	return s.experiment("cursor", func(o *workload.Options) {
		o.LongCursor = true
		o.Transactions = s.workBound(quickTransactions)
	})
}

// workBound is the committed work a compared leg runs to: n at the Quick
// scale, and none — a run of Duration — otherwise.
func (s *Suite) workBound(n int) int {
	if s.cfg.Quick {
		return n
	}
	return 0
}

// fetch is the §5.4 incremental query processing experiment. The FETCH size
// keeps the cursor busy for the whole run: STOCK's rows over ~20 fetches.
func (s *Suite) fetch() (map[gc.Mode]*workload.Result, error) {
	f := &workload.FetchOptions{
		Size:  max(s.cfg.TPCC.Warehouses*s.cfg.TPCC.Items/20, 5),
		Think: s.cfg.Duration / 25,
	}
	return s.experiment("fetch", func(o *workload.Options) { o.LongCursor, o.Fetch = true, f })
}

// trans is the §5.5 Trans-SI experiment.
func (s *Suite) trans() (map[gc.Mode]*workload.Result, error) {
	a := &workload.TransSIOptions{Sleep: s.cfg.Duration / 6}
	return s.experiment("trans-SI", func(o *workload.Options) { o.TransSI = a })
}

// figures are the figure IDs in paper order, plus this reproduction's
// extension experiments (ext*), with what generates each.
var figures = []struct {
	id  string
	run func(*Suite) (*Report, error)
}{
	{"fig10", (*Suite).Fig10}, {"fig11", (*Suite).Fig11}, {"fig12", (*Suite).Fig12},
	{"fig13", (*Suite).Fig13}, {"fig14", (*Suite).Fig14}, {"fig15", (*Suite).Fig15},
	{"fig16", (*Suite).Fig16}, {"fig17", (*Suite).Fig17}, {"fig18", (*Suite).Fig18},
	{"fig19", (*Suite).Fig19}, {"ext1", (*Suite).Ext1}, {"ext2", (*Suite).Ext2},
	{"ext3", (*Suite).Ext3},
}

// Figures lists the available figure IDs in paper order, plus this
// reproduction's extension experiments (ext*).
func Figures() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Run generates the named figure.
func (s *Suite) Run(id string) (*Report, error) {
	for _, f := range figures {
		if f.id == id {
			return f.run(s)
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, Figures())
}
