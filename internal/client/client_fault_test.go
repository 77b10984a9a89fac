package client_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/netfault"
	"hybridgc/internal/server"
	"hybridgc/internal/wire"
)

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// proxiedClient stands a netfault proxy between a fresh server and a client,
// returning both so tests can inject network weather.
func proxiedClient(t *testing.T, ccfg client.Config) (*client.Client, *netfault.Proxy) {
	t.Helper()
	addr, _ := startServer(t, server.Config{})
	p, err := netfault.NewProxy(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ccfg.Addr = p.Addr()
	cl, err := client.Dial(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, p
}

// TestDialTimeoutBoundsHandshake: a peer that accepts but never answers HELLO
// must fail the dial within DialTimeout, not hang for RequestTimeout.
func TestDialTimeoutBoundsHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // accept and say nothing: a tarpit
		}
	}()

	start := time.Now()
	_, err = client.Dial(client.Config{
		Addr:           ln.Addr().String(),
		DialTimeout:    150 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial against a mute peer succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dial took %v, want bounded by the 150ms DialTimeout", elapsed)
	}
}

// TestDialRefusesOtherVersion: the client holds the version gate from its
// side too. A listener that accepts the HELLO but answers with another
// protocol version fails the dial with a message naming what was spoken and
// what was wanted.
func TestDialRefusesOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := wire.ReadFrame(nc); err == nil {
				_, _ = wire.WriteFrame(nc, wire.StOK, (&wire.Builder{}).U8(wire.Version+1).U32(1).Take())
			}
			nc.Close()
		}
	}()
	_, err = client.Dial(client.Config{Addr: ln.Addr().String(), DialTimeout: time.Second})
	want := fmt.Sprintf("server speaks protocol %d, want %d", wire.Version+1, wire.Version)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("dial error = %v, want %q", err, want)
	}
}

// TestFastFailAndRedialRecovery: dial failures arm a fast-fail window
// (core.ErrUnavailable, transient) without touching callers on healthy
// connections, and the background redialer restores service after a heal.
func TestFastFailAndRedialRecovery(t *testing.T) {
	cl, p := proxiedClient(t, client.Config{
		MaxConns:    4,
		DialTimeout: 500 * time.Millisecond,
		RedialBase:  10 * time.Millisecond,
		RedialMax:   50 * time.Millisecond,
	})
	tid := kvTable(t, cl)

	// Pin the one idle connection in a transaction, then make new dials fail.
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	p.SetRefuse(true)

	// A call needing a fresh connection fails with the transient unavailable
	// sentinel — once from the dial itself, then from the fast-fail window.
	for i := 0; i < 2; i++ {
		err := cl.Ping()
		if !errors.Is(err, core.ErrUnavailable) {
			t.Fatalf("ping %d while refused = %v, want core.ErrUnavailable", i, err)
		}
		if !core.IsTransient(err) {
			t.Fatalf("unavailable not transient: %v", err)
		}
	}

	// The pinned transaction's established link is untouched by refusal.
	if _, err := tx.Insert(tid, []byte("v")); err != nil {
		t.Fatalf("healthy pinned connection failed during refusal: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Heal: the background redialer (or the next caller) restores service.
	p.Heal()
	waitFor(t, 5*time.Second, "ping recovery after heal", func() bool {
		return cl.Ping() == nil
	})
	waitFor(t, 5*time.Second, "background redial attempt", func() bool {
		return cl.Redials() > 0
	})
}

// TestFastFailMentionsAddress: the fast-fail error names the address and the
// failure count, so a chaos log line alone localises the fault.
func TestFastFailMentionsAddress(t *testing.T) {
	cl, p := proxiedClient(t, client.Config{
		MaxConns:    2,
		DialTimeout: 300 * time.Millisecond,
		RedialBase:  50 * time.Millisecond,
		RedialMax:   time.Second,
	})
	// Drain the idle connection into a pinned tx so pings must dial.
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	p.SetRefuse(true)
	if err := cl.Ping(); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("first refused ping = %v", err)
	}
	err = cl.Ping() // inside the backoff window: fast-fail
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("fast-fail ping = %v, want core.ErrUnavailable", err)
	}
	if !strings.Contains(err.Error(), p.Addr()) {
		t.Fatalf("fast-fail error %q does not name the address", err)
	}
	p.Heal()
}

// TestTxBreakageIsTransient: killing the connection under an open transaction
// surfaces core.ErrTxnBroken — transient, because the server aborted the
// transaction with the connection, so a full re-run is safe. The pool slot
// frees immediately and the next call gets a fresh connection.
func TestTxBreakageIsTransient(t *testing.T) {
	cl, p := proxiedClient(t, client.Config{MaxConns: 2, RequestTimeout: 2 * time.Second})
	tid := kvTable(t, cl)
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tid, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	p.DropLinks()
	_, err = tx.Insert(tid, []byte("v1"))
	if !errors.Is(err, core.ErrTxnBroken) {
		t.Fatalf("insert on dropped link = %v, want core.ErrTxnBroken", err)
	}
	if !core.IsTransient(err) {
		t.Fatalf("txn breakage not transient: %v", err)
	}
	// The Tx finished itself: further use is rejected, Abort is a no-op.
	if _, err := tx.Insert(tid, []byte("v2")); err == nil {
		t.Fatal("insert on a broken-finished tx succeeded")
	}
	tx.Abort()

	// The pool recovered: a fresh transaction runs end to end.
	waitFor(t, 5*time.Second, "pool recovery", func() bool { return cl.Ping() == nil })
	tx2, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Insert(tid, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// The same holds for a frame of several operations, as long as COMMIT is
	// not among them.
	tx3, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	b := tx3.Batch()
	first := b.Insert(tid, []byte("v4"))
	b.Insert(tid, []byte("v5"))
	if err := b.Do(); err != nil || b.RID(first) == 0 {
		t.Fatalf("batch of two inserts: rid %d, err %v", b.RID(first), err)
	}
	p.DropLinks()
	b.Get(tid, b.RID(first))
	b.Update(tid, b.RID(first), []byte("v6"))
	if err := b.Do(); !errors.Is(err, core.ErrTxnBroken) || !core.IsTransient(err) {
		t.Fatalf("batch without COMMIT on dropped link = %v, want transient core.ErrTxnBroken", err)
	}
	if err := b.Do(); err == nil {
		t.Fatal("Do on a broken-finished tx succeeded")
	}
}

// TestCommitBreakageIsAmbiguous: a connection killed while COMMIT is in
// flight surfaces core.ErrCommitAmbiguous, which must NOT be transient — a
// blind retry could double-apply the transaction.
func TestCommitBreakageIsAmbiguous(t *testing.T) {
	cl, p := proxiedClient(t, client.Config{MaxConns: 2, RequestTimeout: 2 * time.Second})
	tid := kvTable(t, cl)
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tid, []byte("v")); err != nil {
		t.Fatal(err)
	}
	p.DropLinks()
	err = tx.Commit()
	if !errors.Is(err, core.ErrCommitAmbiguous) {
		t.Fatalf("commit on dropped link = %v, want core.ErrCommitAmbiguous", err)
	}
	if core.IsTransient(err) {
		t.Fatal("ambiguous commit must not be transient")
	}

	// A frame that carries COMMIT behind other operations is as ambiguous:
	// the server may have run all of it.
	waitFor(t, 5*time.Second, "pool recovery", func() bool { return cl.Ping() == nil })
	tx2, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	b := tx2.Batch()
	b.Insert(tid, []byte("w"))
	b.Commit()
	p.DropLinks()
	err = b.Do()
	if !errors.Is(err, core.ErrCommitAmbiguous) || core.IsTransient(err) {
		t.Fatalf("batch with COMMIT on dropped link = %v, want non-transient core.ErrCommitAmbiguous", err)
	}
}

// TestFailedBeginFinishesTx: BEGIN travels with the transaction's first
// frame. When it fails the server ran nothing of that frame, and the Tx must
// refuse everything after — a write sent now would reach the server outside
// any transaction and commit by itself.
func TestFailedBeginFinishesTx(t *testing.T) {
	addr, db := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tid := kvTable(t, cl)
	created := db.Stats().VersionsCreated

	tx, err := cl.BeginShard(7, false) // a single-node server has shard 0 only
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tid, []byte("stray")); err == nil || !strings.Contains(err.Error(), "shard 7") {
		t.Fatalf("insert behind a failed BEGINSHARD = %v, want the shard error", err)
	}
	if _, err := tx.Insert(tid, []byte("stray")); err == nil {
		t.Fatal("the Tx accepted an operation after its BEGIN failed")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("the Tx committed after its BEGIN failed")
	}
	tx.Abort()
	if got := db.Stats().VersionsCreated; got != created {
		t.Fatalf("VersionsCreated %d -> %d: a write landed outside a transaction", created, got)
	}
	// The connection went back to the pool (MaxConns is 1) in working order.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentReadRetriesTransparently: a broken idle connection costs a
// read-only call nothing — Ping/Stats retry once on a fresh connection.
func TestIdempotentReadRetriesTransparently(t *testing.T) {
	cl, p := proxiedClient(t, client.Config{MaxConns: 2, RequestTimeout: 2 * time.Second})
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// The pooled idle connection is now dead, but the caller never sees it.
	p.DropLinks()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping across a dropped idle connection = %v, want transparent retry", err)
	}
	p.DropLinks()
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("stats across a dropped idle connection = %v, want transparent retry", err)
	}
}

// TestCursorBreakageIsTransient: a cursor whose connection dies mid-scan
// surfaces core.ErrTxnBroken (the server released its snapshot with the
// session), and Close skips the wire round trip on the broken link.
func TestCursorBreakageIsTransient(t *testing.T) {
	cl, p := proxiedClient(t, client.Config{MaxConns: 2, RequestTimeout: 2 * time.Second})
	if _, err := cl.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	cu, err := cl.Query("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	p.DropLinks()
	_, _, err = cu.Fetch(10)
	if !errors.Is(err, core.ErrTxnBroken) {
		t.Fatalf("fetch on dropped link = %v, want core.ErrTxnBroken", err)
	}
	if !core.IsTransient(err) {
		t.Fatalf("cursor breakage not transient: %v", err)
	}
	if err := cu.Close(); err != nil {
		t.Fatalf("close after breakage = %v, want nil (no round trip)", err)
	}
	// Re-running the query from scratch is the documented recovery.
	waitFor(t, 5*time.Second, "pool recovery", func() bool { return cl.Ping() == nil })
	cu2, err := cl.Query("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := cu2.Fetch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("reopened cursor saw %d rows, want 3", len(rows))
	}
	cu2.Close()
}
