// Package netfault is the network analogue of internal/fault: deterministic,
// seeded fault injection for the TCP paths — the client pool, the service
// layer, and WAL-shipping replication — that the in-process failpoint
// registry cannot reach, because the failures it must model live between
// processes: connection drops, stalls and added latency, partial writes that
// tear a frame mid-flight, and asymmetric partitions that blackhole one
// direction of a link while the other keeps flowing.
//
// Two layers, composable:
//
//   - Injector + Wrap: a net.Conn wrapper whose Read/Write paths consult a
//     seeded plan — per-operation latency, stalls, connection kills, and
//     partial writes (a prefix is written, then the connection dies, so the
//     peer observes a torn frame). Following internal/fault's design rule,
//     the disabled path costs nothing: a nil Injector wraps to the original
//     conn unchanged, and a disarmed Injector is one atomic load per I/O.
//
//   - Proxy: an in-process TCP relay standing between two real endpoints
//     (client↔primary, primary↔replica). It owns the only handle the tests
//     need to create network weather deterministically: per-direction
//     blackholes (asymmetric partitions), dropping every live link at once,
//     and refusing new connections. Healing restores held-back bytes in
//     order, like TCP retransmission after a real partition heals.
//
// Determinism is at the plan level: a given seed always produces the same
// decision sequence per connection (decisions are drawn per-I/O from one
// seeded stream under a lock). Byte-level interleavings across goroutines
// still vary — which is the point: the invariants the chaos harness checks
// must hold for every interleaving of a seeded schedule.
package netfault

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Plan configures an Injector: probabilities are per I/O operation, in
// [0, 1]. The zero Plan injects nothing.
type Plan struct {
	// Latency is added to every Read and Write; Jitter adds a uniformly
	// drawn extra on top.
	Latency time.Duration
	Jitter  time.Duration
	// StallProb stalls an operation for Stall before proceeding — long
	// enough to trip a peer's deadline without killing the connection.
	StallProb float64
	Stall     time.Duration
	// KillProb kills the connection at the operation: the op (and every
	// later one) fails, modeling an abrupt reset.
	KillProb float64
	// PartialWriteProb writes only a prefix of the buffer and then kills
	// the connection — the peer sees a torn frame, the canonical
	// partial-write failure the length-prefixed protocol must survive.
	PartialWriteProb float64
}

// enabled reports whether the plan can ever inject anything.
func (p Plan) enabled() bool {
	return p.Latency > 0 || p.Jitter > 0 ||
		(p.StallProb > 0 && p.Stall > 0) || p.KillProb > 0 || p.PartialWriteProb > 0
}

// Injector draws fault decisions from one seeded stream. One Injector is
// shared by every connection it wraps, so a single seed fixes the whole
// decision sequence.
type Injector struct {
	armed atomic.Bool

	mu   sync.Mutex
	rng  *rand.Rand
	plan Plan

	kills    atomic.Int64
	partials atomic.Int64
}

// NewInjector builds an Injector over a seeded source. The injector starts
// armed iff the plan injects anything.
func NewInjector(seed int64, plan Plan) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed)), plan: plan}
	in.armed.Store(plan.enabled())
	return in
}

// Kills and Partials report how many times each fault class fired.
func (in *Injector) Kills() int64    { return in.kills.Load() }
func (in *Injector) Partials() int64 { return in.partials.Load() }

// decision is one I/O operation's drawn fate.
type decision struct {
	delay   time.Duration
	stall   time.Duration
	kill    bool
	partial bool // write only: send a prefix, then kill
}

// draw consumes one step of the seeded stream. isWrite gates the
// partial-write class.
func (in *Injector) draw(isWrite bool) decision {
	var d decision
	in.mu.Lock()
	p := in.plan
	d.delay = p.Latency
	if p.Jitter > 0 {
		d.delay += time.Duration(in.rng.Int63n(int64(p.Jitter)))
	}
	if p.StallProb > 0 && in.rng.Float64() < p.StallProb {
		d.stall = p.Stall
	}
	if p.KillProb > 0 && in.rng.Float64() < p.KillProb {
		d.kill = true
	}
	if isWrite && p.PartialWriteProb > 0 && in.rng.Float64() < p.PartialWriteProb {
		d.partial = true
	}
	in.mu.Unlock()
	if d.kill {
		in.kills.Add(1)
	}
	if d.partial {
		in.partials.Add(1)
	}
	return d
}
