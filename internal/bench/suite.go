package bench

import (
	"fmt"
	"sync"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/workload"
)

// SuiteConfig scales the experiment suite. Zero values select the full
// defaults; Quick shrinks everything for smoke runs and testing.B use.
type SuiteConfig struct {
	TPCC     tpcc.Config
	Base     gc.Periods
	LongLive time.Duration
	// Duration is the per-run workload duration.
	Duration time.Duration
	// HashBuckets sizes the RID hash table; smaller tables make Figure 13's
	// collision effect visible sooner.
	HashBuckets int
	// Quick selects the smoke-test scale.
	Quick bool
}

func (c *SuiteConfig) fill() {
	if c.Quick {
		if c.Duration <= 0 {
			c.Duration = 500 * time.Millisecond
		}
		if c.TPCC == (tpcc.Config{}) {
			c.TPCC = tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8, Items: 60, Seed: 7}
		}
		if c.Base == (gc.Periods{}) {
			c.Base = gc.Periods{GT: 10 * time.Millisecond, TG: 30 * time.Millisecond, SI: 100 * time.Millisecond}
		}
		if c.LongLive <= 0 {
			c.LongLive = 20 * time.Millisecond
		}
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.TPCC == (tpcc.Config{}) {
		c.TPCC = tpcc.Config{Warehouses: 4, Districts: 4, CustomersPerDistrict: 30, Items: 200, Seed: 7}
	}
	if c.Base == (gc.Periods{}) {
		// The paper's 1 s / 3 s / 10 s at 1/20 time scale.
		c.Base = gc.Periods{GT: 50 * time.Millisecond, TG: 150 * time.Millisecond, SI: 500 * time.Millisecond}
	}
	if c.LongLive <= 0 {
		c.LongLive = 100 * time.Millisecond
	}
	if c.HashBuckets <= 0 {
		c.HashBuckets = 1 << 12
	}
}

// Modes compared throughout §5.
var compared = []workload.Mode{workload.ModeGT, workload.ModeGTTG, workload.ModeHG}

// Suite runs and caches the experiments behind the figures.
type Suite struct {
	cfg SuiteConfig

	mu        sync.Mutex
	cursorRes map[workload.Mode]*workload.Result
	fetchRes  map[workload.Mode]*workload.Result
	transRes  map[workload.Mode]*workload.Result
}

// NewSuite creates a suite with the given configuration.
func NewSuite(cfg SuiteConfig) *Suite {
	cfg.fill()
	return &Suite{cfg: cfg}
}

// Config returns the effective configuration.
func (s *Suite) Config() SuiteConfig { return s.cfg }

func (s *Suite) baseOptions(m workload.Mode) workload.Options {
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

// cursor lazily runs the §5.2 experiment (TPC-C + long-duration cursor on
// STOCK) for every compared mode.
func (s *Suite) cursor() (map[workload.Mode]*workload.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cursorRes != nil {
		return s.cursorRes, nil
	}
	out := make(map[workload.Mode]*workload.Result, len(compared))
	for _, m := range compared {
		o := s.baseOptions(m)
		o.LongCursor = true
		res, err := workload.Run(o)
		if err != nil {
			return nil, fmt.Errorf("cursor experiment, mode %s: %w", m, err)
		}
		out[m] = res
	}
	s.cursorRes = out
	return out, nil
}

// fetch lazily runs the §5.4 incremental query processing experiment.
func (s *Suite) fetch() (map[workload.Mode]*workload.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fetchRes != nil {
		return s.fetchRes, nil
	}
	// Size the FETCH loop so the cursor stays busy for the whole run:
	// stock rows = warehouses*items, split across ~20 fetches.
	stockRows := s.cfg.TPCC.Warehouses * s.cfg.TPCC.Items
	size := stockRows / 20
	if size < 5 {
		size = 5
	}
	think := s.cfg.Duration / 25
	out := make(map[workload.Mode]*workload.Result, len(compared))
	for _, m := range compared {
		o := s.baseOptions(m)
		o.LongCursor = true
		o.Fetch = &workload.FetchOptions{Size: size, Think: think}
		res, err := workload.Run(o)
		if err != nil {
			return nil, fmt.Errorf("fetch experiment, mode %s: %w", m, err)
		}
		out[m] = res
	}
	s.fetchRes = out
	return out, nil
}

// trans lazily runs the §5.5 Trans-SI experiment.
func (s *Suite) trans() (map[workload.Mode]*workload.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.transRes != nil {
		return s.transRes, nil
	}
	out := make(map[workload.Mode]*workload.Result, len(compared))
	for _, m := range compared {
		o := s.baseOptions(m)
		o.TransSI = &workload.TransSIOptions{Sleep: s.cfg.Duration / 6}
		res, err := workload.Run(o)
		if err != nil {
			return nil, fmt.Errorf("trans-SI experiment, mode %s: %w", m, err)
		}
		out[m] = res
	}
	s.transRes = out
	return out, nil
}

// Figures lists the available figure IDs in paper order, plus this
// reproduction's extension experiments (ext*).
func Figures() []string {
	return []string{"fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "ext1", "ext2", "ext3"}
}

// Run generates the named figure.
func (s *Suite) Run(id string) (*Report, error) {
	switch id {
	case "fig10":
		return s.Fig10()
	case "fig11":
		return s.Fig11()
	case "fig12":
		return s.Fig12()
	case "fig13":
		return s.Fig13()
	case "fig14":
		return s.Fig14()
	case "fig15":
		return s.Fig15()
	case "fig16":
		return s.Fig16()
	case "fig17":
		return s.Fig17()
	case "fig18":
		return s.Fig18()
	case "fig19":
		return s.Fig19()
	case "ext1":
		return s.Ext1()
	case "ext2":
		return s.Ext2()
	case "ext3":
		return s.Ext3()
	default:
		return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, Figures())
	}
}
