package netfault

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction names one half of a proxied link, from the dialing side's point
// of view: Upstream carries bytes from the dialer toward the target,
// Downstream carries the target's bytes back.
type Direction int

const (
	Upstream Direction = iota
	Downstream
)

// gatePoll is how often a blackholed relay loop re-checks its gate. Held
// bytes are delivered in order within this bound of a Heal.
const gatePoll = 2 * time.Millisecond

// Proxy is an in-process TCP relay with deterministic failure controls. It
// listens on a loopback address; every accepted connection is paired with a
// fresh connection to the target, and bytes are relayed per direction
// through gates the test (or the chaos nemesis) operates:
//
//   - SetPartition blackholes either or both directions: bytes are read but
//     held, so the sender's kernel buffers fill and its write deadlines
//     fire — the observable shape of a real partition. Healing releases the
//     held bytes in order, like retransmission after the partition clears.
//   - DropLinks abruptly closes every live link (connection reset storm).
//   - SetRefuse makes the proxy close newly accepted connections
//     immediately, so redial loops see connection failures.
//
// An optional Injector adds per-I/O faults (latency, stalls, kills, partial
// writes) on the target-side socket of every link.
type Proxy struct {
	target string
	ln     net.Listener
	inj    *Injector

	cutUp   atomic.Bool
	cutDown atomic.Bool
	refuse  atomic.Bool

	mu     sync.Mutex
	links  map[*link]struct{}
	closed bool
	wg     sync.WaitGroup

	refused atomic.Int64
	dropped atomic.Int64
	bytesUp atomic.Int64
	bytesDn atomic.Int64
}

// link is one dialer↔target pairing.
type link struct {
	client net.Conn
	server net.Conn
}

// NewProxy starts a proxy in front of target on an ephemeral loopback
// address. inj may be nil.
func NewProxy(target string, inj *Injector) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, inj: inj, links: make(map[*link]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's dialable address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPartition blackholes the given directions (true = cut). Asymmetric
// partitions — requests arrive but responses vanish, or vice versa — are the
// cases that separate a correct failure model from a hopeful one.
func (p *Proxy) SetPartition(up, down bool) {
	p.cutUp.Store(up)
	p.cutDown.Store(down)
}

// SetRefuse makes the proxy reject (true) or accept (false) new connections.
func (p *Proxy) SetRefuse(on bool) { p.refuse.Store(on) }

// DropLinks closes every live link abruptly. New connections are still
// accepted (unless refusing), so reconnecting peers come back through the
// same weather controls.
func (p *Proxy) DropLinks() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.client.Close()
		l.server.Close()
		p.dropped.Add(1)
	}
}

// Heal clears partitions and refusal. Held-back bytes resume flowing within
// gatePoll; dropped links stay dropped (the peers redial).
func (p *Proxy) Heal() {
	p.SetPartition(false, false)
	p.SetRefuse(false)
}

// Close shuts the proxy down: the listener closes, every link drops, and
// the relay goroutines exit.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.DropLinks()
	p.wg.Wait()
}

// Refused and Dropped report connection-lifecycle counts; BytesRelayed
// reports per-direction forwarded bytes.
func (p *Proxy) Refused() int64 { return p.refused.Load() }
func (p *Proxy) Dropped() int64 { return p.dropped.Load() }
func (p *Proxy) BytesRelayed(d Direction) int64 {
	if d == Upstream {
		return p.bytesUp.Load()
	}
	return p.bytesDn.Load()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if p.refuse.Load() {
			p.refused.Add(1)
			nc.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			nc.Close()
			continue
		}
		l := &link{client: nc, server: Wrap(up, p.inj)}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			up.Close()
			return
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()

		p.wg.Add(2)
		var once sync.Once
		closeBoth := func() {
			once.Do(func() {
				l.client.Close()
				l.server.Close()
				p.mu.Lock()
				delete(p.links, l)
				p.mu.Unlock()
			})
		}
		go p.relay(l.client, l.server, &p.cutUp, &p.bytesUp, closeBoth)
		go p.relay(l.server, l.client, &p.cutDown, &p.bytesDn, closeBoth)
	}
}

// relay copies src→dst, holding each chunk while the direction's gate is
// cut. Holding (rather than discarding) models a partition faithfully: the
// bytes are "in the network", the sender blocks on TCP backpressure once
// buffers fill, and a heal delivers everything in order. Either side's
// failure tears the whole link down, so a half-dead link cannot linger.
func (p *Proxy) relay(src, dst net.Conn, gate *atomic.Bool, count *atomic.Int64, closeBoth func()) {
	defer p.wg.Done()
	defer closeBoth()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			for gate.Load() {
				if p.isClosed() {
					return
				}
				time.Sleep(gatePoll)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			count.Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}

func (p *Proxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}
