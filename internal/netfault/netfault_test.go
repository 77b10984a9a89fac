package netfault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				io.Copy(nc, nc)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// roundTrip writes msg and reads len(msg) bytes back under deadline.
func roundTrip(nc net.Conn, msg []byte, timeout time.Duration) ([]byte, error) {
	_ = nc.SetDeadline(time.Now().Add(timeout))
	if _, err := nc.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(nc, got); err != nil {
		return nil, err
	}
	return got, nil
}

func TestProxyRelaysTransparently(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc := dial(t, p.Addr())
	msg := []byte("hello through the proxy")
	got, err := roundTrip(nc, msg, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
	// A relay counts a chunk after writing it, so the echo can arrive first.
	deadline := time.Now().Add(2 * time.Second)
	for p.BytesRelayed(Upstream) == 0 || p.BytesRelayed(Downstream) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("proxy counted no relayed bytes")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsymmetricPartition cuts only the downstream direction: requests still
// reach the server, responses blackhole, and healing delivers the held
// bytes in order.
func TestAsymmetricPartition(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	nc := dial(t, p.Addr())

	if _, err := roundTrip(nc, []byte("warm"), 2*time.Second); err != nil {
		t.Fatal(err)
	}

	p.SetPartition(false, true)
	msg := []byte("lost in flight")
	_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	// The request crossed (upstream open) but the echo must not arrive.
	_ = nc.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, len(msg))
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("read %d bytes through a downstream partition", n)
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("partitioned read failed with %v, want timeout", err)
	}

	// Heal: the held echo arrives intact — no bytes lost, none reordered.
	p.Heal()
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(nc, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("post-heal bytes = %q, want %q", buf, msg)
	}
}

func TestDropLinksResetsPeers(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	nc := dial(t, p.Addr())
	if _, err := roundTrip(nc, []byte("up"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	p.DropLinks()
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on a dropped link")
	}
	if p.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", p.Dropped())
	}
	// The proxy still accepts fresh connections after a drop storm.
	nc2 := dial(t, p.Addr())
	if _, err := roundTrip(nc2, []byte("back"), 2*time.Second); err != nil {
		t.Fatalf("post-drop redial: %v", err)
	}
}

func TestRefuseNewConnections(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.SetRefuse(true)
	nc, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err == nil {
		// Accept-then-close: the dial may succeed, but the conn is dead.
		_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := nc.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("refused connection delivered bytes")
		}
		nc.Close()
	}
	if p.Refused() == 0 {
		t.Fatal("refusal not counted")
	}
	p.Heal()
	nc2 := dial(t, p.Addr())
	if _, err := roundTrip(nc2, []byte("open"), 2*time.Second); err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
}

// TestInjectorDeterministicStream: two injectors with one seed draw the
// identical decision sequence; different seeds diverge.
func TestInjectorDeterministicStream(t *testing.T) {
	plan := Plan{KillProb: 0.3, StallProb: 0.2, Stall: time.Millisecond, PartialWriteProb: 0.25}
	seq := func(seed int64) []decision {
		in := NewInjector(seed, plan)
		out := make([]decision, 0, 64)
		for i := 0; i < 64; i++ {
			out = append(out, in.draw(i%2 == 0))
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged for one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical decision streams")
	}
}

// TestPartialWriteTearsFrame: a partial-write injection delivers a strict
// prefix and then kills the connection — the reader sees a torn stream, the
// writer an injected error.
func TestPartialWriteTearsFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		b, _ := io.ReadAll(nc)
		got <- b
	}()

	raw, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(1, Plan{PartialWriteProb: 1})
	nc := Wrap(raw, in)
	msg := bytes.Repeat([]byte("frame"), 100)
	n, err := nc.Write(msg)
	if !errors.Is(err, ErrInjectedNet) {
		t.Fatalf("partial write err = %v, want ErrInjectedNet", err)
	}
	if n == 0 || n >= len(msg) {
		t.Fatalf("partial write sent %d of %d bytes, want a strict prefix", n, len(msg))
	}
	if _, err := nc.Write(msg); !errors.Is(err, ErrInjectedNet) {
		t.Fatalf("write after kill = %v, want latched ErrInjectedNet", err)
	}
	select {
	case b := <-got:
		if len(b) != n {
			t.Fatalf("peer received %d bytes, writer sent %d", len(b), n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer never observed the torn stream")
	}
	if in.Partials() != 1 {
		t.Fatalf("partials = %d, want 1", in.Partials())
	}
}

// TestWrapDisabledIsFree: nil and empty-plan injectors return the original
// conn — the disabled path has no wrapper at all.
func TestWrapDisabledIsFree(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := Wrap(c1, nil); got != c1 {
		t.Fatal("Wrap(nil injector) wrapped the conn")
	}
	if got := Wrap(c1, NewInjector(7, Plan{})); got != c1 {
		t.Fatal("Wrap(zero plan) wrapped the conn")
	}
}
