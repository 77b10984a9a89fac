// Read scale-out: ReadPool is a read/write-splitting client over one
// primary and a set of read replicas.
//
// Writes (and Strong reads) always go to the primary. Session reads carry
// the pool's consistency token — the highest commit LSN any write through
// the pool has produced — so any replica that has applied past the token
// can serve them with read-your-writes intact; a replica that is behind
// bounces the request (core.ErrReplicaBehind) and the pool retries on the
// next endpoint, falling back to the primary. The token is the only
// freshness signal: the pool polls nothing in the background.
//
// A transport failure on the request path quarantines the endpoint for a
// full-jitter backoff window, so in-flight reads fail over instead of
// piling onto a dead address; the first request after the window tries the
// endpoint again.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
)

// Consistency selects the guarantee a pooled read needs.
type Consistency struct{ kind byte }

const (
	ckSession byte = iota // default: read-your-writes via the session token
	ckStrong              // primary only
)

// Session reads observe every write made through the pool (read-your-writes):
// they carry the session token and only a caught-up endpoint serves them.
var Session = Consistency{kind: ckSession}

// Strong reads are routed to the primary and observe every commit.
var Strong = Consistency{kind: ckStrong}

// PoolConfig tunes a ReadPool.
type PoolConfig struct {
	// Primary is the writable server's address.
	Primary string
	// Replicas are the read replicas' addresses (may be empty: every read
	// then lands on the primary).
	Replicas []string
	// Client is the per-endpoint connection config; Addr is overridden per
	// endpoint.
	Client Config
	// QuarantineBase/QuarantineMax bound the backoff window an endpoint sits
	// out after a transport failure (<=0 select 100ms / 3s).
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
}

func (c *PoolConfig) fill() {
	if c.QuarantineBase <= 0 {
		c.QuarantineBase = 100 * time.Millisecond
	}
	if c.QuarantineMax <= 0 {
		c.QuarantineMax = 3 * time.Second
	}
}

// PoolCounters is the pool's routing telemetry.
type PoolCounters struct {
	// PrimaryReads / ReplicaReads count where reads were ultimately served.
	PrimaryReads int64
	ReplicaReads int64
	// Writes counts statements routed to the primary as writes.
	Writes int64
	// Bounces counts replica refusals (ErrReplicaBehind) that caused a
	// retry on another endpoint.
	Bounces int64
	// Failovers counts endpoint quarantines triggered by the request path.
	Failovers int64
}

// endpoint is one server the pool routes to.
type endpoint struct {
	addr string

	mu     sync.Mutex
	cl     *Client   // nil until the first successful dial
	failN  int       // consecutive transport/dial failures
	downAt time.Time // quarantined until this instant
}

// ReadPool routes statements across one primary and a replica set.
type ReadPool struct {
	cfg      PoolConfig
	primary  *endpoint
	replicas []*endpoint

	token atomic.Uint64 // session consistency token: max commit LSN seen
	rr    atomic.Uint64 // round-robin cursor over replicas

	primaryReads atomic.Int64
	replicaReads atomic.Int64
	writes       atomic.Int64
	bounces      atomic.Int64
	failovers    atomic.Int64
}

// NewReadPool builds a pool and eagerly dials the primary (a bad primary
// address fails here). Replicas are dialed lazily and quarantined while
// unreachable, so a pool can start before its replicas do.
func NewReadPool(cfg PoolConfig) (*ReadPool, error) {
	cfg.fill()
	p := &ReadPool{
		cfg:     cfg,
		primary: &endpoint{addr: cfg.Primary},
	}
	for _, addr := range cfg.Replicas {
		p.replicas = append(p.replicas, &endpoint{addr: addr})
	}
	if _, err := p.client(p.primary); err != nil {
		return nil, fmt.Errorf("readpool: primary %s: %w", cfg.Primary, err)
	}
	return p, nil
}

// Close closes every endpoint's connections.
func (p *ReadPool) Close() {
	for _, ep := range append([]*endpoint{p.primary}, p.replicas...) {
		ep.mu.Lock()
		if ep.cl != nil {
			ep.cl.Close()
		}
		ep.mu.Unlock()
	}
}

// Token returns the pool's session consistency token.
func (p *ReadPool) Token() uint64 { return p.token.Load() }

// ObserveToken raises the session token to t (tokens only move forward, so
// callers may feed in tokens from transactions or other sessions to extend
// read-your-writes over them).
func (p *ReadPool) ObserveToken(t uint64) {
	for {
		cur := p.token.Load()
		if t <= cur || p.token.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Counters snapshots the pool's routing telemetry.
func (p *ReadPool) Counters() PoolCounters {
	return PoolCounters{
		PrimaryReads: p.primaryReads.Load(),
		ReplicaReads: p.replicaReads.Load(),
		Writes:       p.writes.Load(),
		Bounces:      p.bounces.Load(),
		Failovers:    p.failovers.Load(),
	}
}

// Primary exposes the primary's pooled client for session-state work the
// pool cannot route (transactions via Begin, record-level verbs).
func (p *ReadPool) Primary() (*Client, error) { return p.client(p.primary) }

// client returns the endpoint's client, dialing if needed.
func (ep *endpoint) client(cfg Config) (*Client, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.cl != nil {
		return ep.cl, nil
	}
	cfg.Addr = ep.addr
	cl, err := Dial(cfg)
	if err != nil {
		return nil, err
	}
	ep.cl = cl
	return cl, nil
}

func (p *ReadPool) client(ep *endpoint) (*Client, error) {
	return ep.client(p.cfg.Client)
}

// quarantine benches the endpoint for a backoff window after a transport or
// dial failure.
func (p *ReadPool) quarantine(ep *endpoint) {
	ep.mu.Lock()
	ep.downAt = time.Now().Add(core.Backoff(ep.failN, p.cfg.QuarantineBase, p.cfg.QuarantineMax))
	ep.failN++
	ep.mu.Unlock()
	p.failovers.Add(1)
}

// recover clears the endpoint's quarantine after a success.
func (ep *endpoint) recover() {
	ep.mu.Lock()
	ep.failN, ep.downAt = 0, time.Time{}
	ep.mu.Unlock()
}

// available reports whether the endpoint is outside its quarantine window.
func (ep *endpoint) available(now time.Time) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return now.After(ep.downAt)
}

// Exec routes one write (or any statement that must see and produce the
// latest state) to the primary and folds its commit token into the session.
func (p *ReadPool) Exec(sqlText string) (*Result, error) {
	cl, err := p.client(p.primary)
	if err != nil {
		p.quarantine(p.primary)
		return nil, err
	}
	res, err := cl.Exec(sqlText)
	if err != nil {
		if isTransportErr(err) {
			p.quarantine(p.primary)
		}
		return nil, err
	}
	p.writes.Add(1)
	p.ObserveToken(res.Token)
	return res, nil
}

// Read routes one read-only statement per the requested consistency level.
// The error of the last endpoint tried is returned when every endpoint
// fails; transient classification (core.IsTransient) is preserved so
// callers' retry loops work unchanged.
func (p *ReadPool) Read(sqlText string, c Consistency) (*Result, error) {
	if c.kind == ckStrong {
		return p.readPrimary(sqlText)
	}
	now := time.Now()
	token := p.token.Load()
	var lastErr error
	n := len(p.replicas)
	if n > 0 {
		start := int(p.rr.Add(1))
		for i := 0; i < n; i++ {
			ep := p.replicas[(start+i)%n]
			if !ep.available(now) {
				continue
			}
			cl, err := p.client(ep)
			if err != nil {
				p.quarantine(ep)
				lastErr = fmt.Errorf("%w: %v", core.ErrUnavailable, err)
				continue
			}
			res, err := cl.ExecAt(sqlText, token)
			if err == nil {
				ep.recover()
				p.replicaReads.Add(1)
				return res, nil
			}
			lastErr = err
			if errors.Is(err, core.ErrReplicaBehind) {
				p.bounces.Add(1)
				continue
			}
			if isTransportErr(err) || errors.Is(err, core.ErrUnavailable) {
				p.quarantine(ep)
				continue
			}
			// A server-reported statement error (bad SQL, missing table) is
			// the caller's answer; no other endpoint would disagree.
			return nil, err
		}
	}
	// Every replica skipped or failed: the primary trivially satisfies any
	// token.
	res, err := p.readPrimary(sqlText)
	if err != nil && lastErr != nil && errors.Is(err, core.ErrUnavailable) {
		return nil, fmt.Errorf("readpool: all endpoints failed: %w (last replica: %v)", err, lastErr)
	}
	return res, err
}

func (p *ReadPool) readPrimary(sqlText string) (*Result, error) {
	cl, err := p.client(p.primary)
	if err != nil {
		p.quarantine(p.primary)
		return nil, fmt.Errorf("%w: %v", core.ErrUnavailable, err)
	}
	res, err := cl.Exec(sqlText)
	if err != nil {
		if isTransportErr(err) {
			p.quarantine(p.primary)
		}
		return nil, err
	}
	p.primaryReads.Add(1)
	return res, nil
}
