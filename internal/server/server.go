// Package server is the network service layer over the engine: a stdlib-only
// TCP server speaking the length-prefixed binary protocol of internal/wire.
// Each connection is one session — an explicit-transaction scope, a set of
// open query cursors, and (after HELLO) an authenticated peer. Requests are
// processed strictly in order per connection, which gives clients free
// pipelining; independent connections run fully in parallel.
//
// The server's job in the paper's terms is to make the mixed OLTP/OLAP
// scenario real: remote sessions open long-lived cursors whose snapshots pin
// the global minimum, so connection lifecycle — idle deadlines, abrupt
// disconnects, graceful drain — is exactly the machinery that decides when
// garbage collection may advance. Any path that ends a connection releases
// its cursors and aborts its transaction before the connection goroutine
// exits.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/metrics"
	"hybridgc/internal/sql"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// ReplHandler serves a hijacked replication stream. An OpReplStream request
// takes its connection out of the request/response loop: the handler owns
// the socket (and the connection's buffered reader/writer, which may hold
// pipelined bytes) until it returns, after which the connection is closed.
// draining reports server shutdown; the handler must end the stream promptly
// once it turns true. The interface keeps the dependency one-way: the
// replication source implements it, the server never imports it.
type ReplHandler interface {
	ServeStream(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, req wire.ReplStreamRequest, draining func() bool) error
}

// Config tunes a Server.
type Config struct {
	// Addr is the TCP listen address; the server itself only ever serves a
	// listener it is handed, node.Start opens one here.
	Addr string
	// Token, when non-empty, must be presented in HELLO.
	Token string
	// MaxConns bounds concurrent connections (<=0 selects 256). Connections
	// beyond the limit receive a TooManyConns error frame and are closed.
	MaxConns int
	// IdleTimeout is the per-connection read deadline between requests — the
	// reap interval for dead peers: a connection that sends nothing for this
	// long is closed and its cursors and transaction are released (<=0
	// selects 2 minutes).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (<=0 selects 30s).
	WriteTimeout time.Duration
	// LatencyReservoir sizes the request-latency histogram's bounded
	// reservoir (<=0 selects metrics.DefaultHistogramCap).
	LatencyReservoir int

	// Repl, when set, accepts OpReplStream requests (a primary serving
	// replicas). Nil servers reject the opcode.
	Repl ReplHandler
	// StatsHook, when set, runs over every assembled STATS payload —
	// replication components use it to splice in their counters.
	StatsHook func(*wire.Stats)
	// ReadGate, when set, admits reads against the session consistency
	// token: a replica wires it to its applier so a HELLO/EXEC/QOPEN
	// carrying a min-LSN token either waits until the applier reaches that
	// LSN (waited=true, nil error) or bounces with core.ErrReplicaBehind
	// once the wait deadline passes. Nil on primaries, where every token is
	// trivially satisfied.
	ReadGate func(minLSN uint64) (waited bool, err error)

	// testHookRequest, when set by tests, runs after a request frame is
	// decoded and before it is executed — the seam drain tests use to hold a
	// request in flight deterministically. Immutable after New.
	testHookRequest func(op byte)
}

func (c *Config) fill() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
}

// Server serves one engine over TCP.
type Server struct {
	cfg Config
	eng engine.Engine
	cat *sql.Catalog

	// tokenLog, when non-nil, is the WAL whose NextLSN serves as the
	// session consistency token in COMMIT/EXEC responses. Resolved once at
	// construction: single-shard persistent engines only (replication — and
	// therefore token-gated replica reads — is single-node).
	tokenLog *wal.Log

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	wg       sync.WaitGroup

	// Service-level metrics, exposed through the STATS verb.
	lat           *metrics.Histogram
	requests      metrics.Counter
	requestErrors metrics.Counter
	bytesIn       metrics.Counter
	bytesOut      metrics.Counter
	connsTotal    metrics.Counter
	connsActive   atomic.Int64
	cursorsOpen   atomic.Int64
	cursorsReaped metrics.Counter
	gateWaits     metrics.Counter
	gateBounces   metrics.Counter
}

// New builds a server over a single-node database — the compatibility form
// of NewEngine.
func New(db *core.DB, cfg Config) (*Server, error) {
	return NewEngine(engine.NewSingle(db), cfg)
}

// NewEngine builds a server over an engine (single-node or sharded). The SQL
// catalog is created (or re-attached, after recovery) on the same engine, so
// SQL and record-level verbs see one store.
func NewEngine(eng engine.Engine, cfg Config) (*Server, error) {
	cfg.fill()
	cat, err := sql.NewCatalogEngine(eng)
	if err != nil {
		return nil, fmt.Errorf("server: catalog: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		eng:   eng,
		cat:   cat,
		conns: make(map[*conn]struct{}),
		lat:   metrics.NewHistogram(cfg.LatencyReservoir),
	}
	if eng.Shards() == 1 {
		s.tokenLog = eng.Shard(0).WAL()
	}
	return s, nil
}

// tokenLSN returns the session consistency token to stamp on a response:
// the WAL stream head right now, which is ≥ the LSN of anything the session
// has committed. Zero when the engine has no single token stream (memory-only
// or sharded), which clients treat as "no token".
func (s *Server) tokenLSN() uint64 {
	if s.tokenLog == nil {
		return 0
	}
	return uint64(s.tokenLog.NextLSN())
}

// Catalog exposes the server's SQL catalog (in-process callers and tests).
func (s *Server) Catalog() *sql.Catalog { return s.cat }

// Serve accepts connections on ln until the listener is closed by Shutdown.
// It returns nil after a graceful drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return wire.ErrDraining
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if int(s.connsActive.Load()) >= s.cfg.MaxConns {
			// Over the limit: answer with an error frame so the client gets a
			// diagnosable failure instead of a silent hangup.
			body := (&wire.Builder{}).U16(wire.ECodeTooManyConns).Str("server: connection limit reached").Take()
			_, _ = wire.WriteFrame(nc, wire.StErr, body)
			nc.Close()
			continue
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			body := (&wire.Builder{}).U16(wire.ECodeDraining).Str("server: draining").Take()
			_, _ = wire.WriteFrame(nc, wire.StErr, body)
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsActive.Add(1)
		s.connsTotal.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.connsActive.Add(-1)
		}()
	}
}

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server gracefully: the listener stops accepting, every
// connection finishes the request it is currently executing (its response is
// written), and then each connection is closed — cursors released,
// transactions aborted — so pinned snapshots stop blocking garbage
// collection. Connections parked between requests are unblocked immediately
// via an expired read deadline. Shutdown waits up to timeout for the
// connection goroutines to exit, then force-closes stragglers.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// Draining reports whether Shutdown has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats assembles the STATS payload: every shard read once, the aggregate
// merged from those very readings (so the totals and the rows below them are
// one instant), then the service layer's own counters and latency
// percentiles.
func (s *Server) Stats() wire.Stats {
	shards := make([]core.Stats, s.eng.Shards())
	for i := range shards {
		shards[i] = s.eng.Shard(i).Stats()
	}
	out := wire.Stats{
		Stats: core.MergeStats(shards),

		Conns:           s.connsActive.Load(),
		ConnsTotal:      s.connsTotal.Value(),
		Requests:        s.requests.Value(),
		RequestErrors:   s.requestErrors.Value(),
		BytesIn:         s.bytesIn.Value(),
		BytesOut:        s.bytesOut.Value(),
		CursorsOpen:     s.cursorsOpen.Load(),
		CursorsReaped:   s.cursorsReaped.Value(),
		ReadGateWaits:   s.gateWaits.Value(),
		ReadGateBounces: s.gateBounces.Value(),
		LatMean:         s.lat.Mean(),
		LatP50:          s.lat.Percentile(50),
		LatP95:          s.lat.Percentile(95),
		LatP99:          s.lat.Percentile(99),
	}
	if len(shards) > 1 {
		out.Shards = shards
	}
	if m := s.cat.HTAP(); m != nil {
		out.HTAP = m.Stats()
	}
	if hook := s.cfg.StatsHook; hook != nil {
		hook(&out)
	}
	return out
}

// isClosedErr reports the errors a closing connection produces in normal
// operation, which are not worth logging.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
