// Package fault is a deterministic failpoint registry for fault-injection
// testing: named injection sites compiled into the engine's persistence and
// commit paths that normally do nothing, but can be armed by tests to return
// errors, panic or sleep at exact, reproducible moments. The crash-matrix
// recovery harness enumerates the declared sites and simulates a crash at
// each one in turn.
//
// The design goals, in order:
//
//  1. Zero overhead when disabled. Hit is a single atomic load on the hot
//     path while no failpoint is enabled — no map lookup, no lock, no
//     allocation — so sites can live on commit and fsync paths in release
//     builds.
//  2. Determinism. Triggers count hits under one lock: "fire on the 4th
//     append", "fire every 3rd sync, twice" always means the same thing.
//  3. No dependencies. Stdlib only.
//
// Usage:
//
//	fault.Enable(wal.FPSync, fault.After(3), fault.ReturnErr(io.ErrShortWrite))
//	defer fault.Reset()
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error of injected failures. Errors passed to
// ReturnErr should wrap it (and the ones Errorf builds do), so callers can
// distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Errorf builds an injected error wrapping ErrInjected.
func Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInjected, fmt.Sprintf(format, args...))
}

// armed counts enabled failpoints; Hit returns immediately while it is zero.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points = map[string]*point{}
	sites  = map[string]string{} // declared inventory: name -> description
)

// point is one enabled failpoint's trigger state.
type point struct {
	after   int64 // hits to skip before becoming eligible
	every   int64 // fire on every nth eligible hit (<=1: every)
	times   int64 // remaining fires; <0 means unlimited
	hits    int64
	fired   int64
	actions []action
}

type action interface {
	run(site string) error
}

// Option configures an enabled failpoint: triggers (After, EveryNth, Once,
// Times) and actions (ReturnErr, Panic, Sleep).
type Option interface {
	apply(*point)
}

type optionFunc func(*point)

func (f optionFunc) apply(p *point) { f(p) }

// After skips the first n hits: the failpoint becomes eligible on hit n+1.
func After(n int) Option {
	return optionFunc(func(p *point) { p.after = int64(n) })
}

// EveryNth fires on every nth eligible hit (1 = every eligible hit).
func EveryNth(n int) Option {
	return optionFunc(func(p *point) { p.every = int64(n) })
}

// Times limits the failpoint to n fires; afterwards hits pass through.
func Times(n int) Option {
	return optionFunc(func(p *point) { p.times = int64(n) })
}

// Once is Times(1): a one-shot failpoint.
func Once() Option { return Times(1) }

// errAction returns its error from Hit.
type errAction struct{ err error }

func (a errAction) run(string) error { return a.err }

func (a errAction) apply(p *point) { p.actions = append(p.actions, a) }

// ReturnErr makes the failpoint return err from Hit. The error should wrap
// ErrInjected (see Errorf) so call sites can tell injected faults apart.
func ReturnErr(err error) Option { return errAction{err: err} }

// Inject is ReturnErr with a generic injected error naming the site.
func Inject() Option {
	return optionFunc(func(p *point) {
		p.actions = append(p.actions, injectAction{})
	})
}

type injectAction struct{}

func (injectAction) run(site string) error { return Errorf("at %s", site) }

// panicAction panics, simulating a hard in-process crash.
type panicAction struct{ msg string }

func (a panicAction) run(site string) error {
	panic(fmt.Sprintf("fault: injected panic at %s: %s", site, a.msg))
}

func (a panicAction) apply(p *point) { p.actions = append(p.actions, a) }

// Panic makes the failpoint panic when it fires.
func Panic(msg string) Option { return panicAction{msg: msg} }

// sleepAction delays the caller, widening race windows deterministically.
type sleepAction struct{ d time.Duration }

func (a sleepAction) run(string) error { time.Sleep(a.d); return nil }

func (a sleepAction) apply(p *point) { p.actions = append(p.actions, a) }

// Sleep makes the failpoint sleep for d when it fires (and then continue,
// unless combined with ReturnErr).
func Sleep(d time.Duration) Option { return sleepAction{d: d} }

// Enable arms the named failpoint. Options are applied in order; with no
// trigger options the point fires on every hit, and with no action options
// firing injects a generic error (Inject). Re-enabling replaces the previous
// configuration and resets counters.
func Enable(name string, opts ...Option) {
	p := &point{every: 1, times: -1}
	for _, o := range opts {
		o.apply(p)
	}
	if len(p.actions) == 0 {
		Inject().apply(p)
	}
	mu.Lock()
	if _, exists := points[name]; !exists {
		armed.Add(1)
	}
	points[name] = p
	mu.Unlock()
}

// Disable disarms the named failpoint. Disabling an unknown name is a no-op.
func Disable(name string) {
	mu.Lock()
	if _, exists := points[name]; exists {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint. Tests defer it.
func Reset() {
	mu.Lock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	mu.Unlock()
}

// Hit marks one pass through the named injection site. It returns nil unless
// the site is armed and its trigger fires, in which case the configured
// actions run (sleep, panic) and any configured error is returned. The
// disabled path is a single atomic load.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return hitArmed(name)
}

func hitArmed(name string) error {
	mu.Lock()
	p := points[name]
	if p == nil {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.hits <= p.after {
		mu.Unlock()
		return nil
	}
	if p.every > 1 && (p.hits-p.after)%p.every != 0 {
		mu.Unlock()
		return nil
	}
	if p.times == 0 {
		mu.Unlock()
		return nil
	}
	if p.times > 0 {
		p.times--
	}
	p.fired++
	acts := p.actions
	mu.Unlock()

	var err error
	for _, a := range acts {
		if e := a.run(name); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// FiredCount reports how many times the named failpoint has fired since it
// was (re-)enabled. Zero for disarmed or never-fired points.
func FiredCount(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.fired
	}
	return 0
}

// Declare registers an injection site in the inventory and returns its name,
// so subsystems declare their sites as package-level constants:
//
//	var FPSync = fault.Declare("wal/fsync", "before fsync of a commit record")
//
// Declaring is orthogonal to enabling: a declared site costs nothing until a
// test arms it, and the crash-matrix harness drives one simulated crash per
// declared site.
func Declare(name, desc string) string {
	mu.Lock()
	sites[name] = desc
	mu.Unlock()
	return name
}

// Site describes one declared injection site.
type Site struct {
	Name string
	Desc string
}

// Inventory lists the declared injection sites, sorted by name.
func Inventory() []Site {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Site, 0, len(sites))
	for n, d := range sites {
		out = append(out, Site{Name: n, Desc: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
