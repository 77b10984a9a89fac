package server

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/wire"
)

// newPersistentServer is newTestServer over a WAL-backed engine, so commit
// responses carry real consistency tokens (a memory engine has no WAL and
// reports token 0).
func newPersistentServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	db, err := core.Open(core.Config{Persistence: &core.Persistence{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		db.Close()
	})
	return srv, ln.Addr().String()
}

// TestCommitTokenOverWire: every write acknowledgement carries the stream
// head as its consistency token — non-zero, non-decreasing, and covering the
// commit it acknowledges, on both the autocommit and the explicit-tx paths.
func TestCommitTokenOverWire(t *testing.T) {
	_, addr := newPersistentServer(t, Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Exec("CREATE TABLE t (id INT)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Token == 0 {
		t.Fatal("CREATE TABLE acknowledged with token 0")
	}
	last := res.Token
	for i := 0; i < 5; i++ {
		if res, err = cl.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
		if res.Token < last {
			t.Fatalf("token regressed: %d after %d", res.Token, last)
		}
		last = res.Token
	}

	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (99)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.CommitLSN() <= last {
		t.Fatalf("commit LSN %d does not cover the stream head %d", tx.CommitLSN(), last)
	}

	// A read gated at the freshest token passes on the server that produced
	// it — the primary trivially satisfies any token it handed out.
	if _, err := cl.ExecAt("SELECT id FROM t WHERE id = 99", tx.CommitLSN()); err != nil {
		t.Fatal(err)
	}
}

// TestReadGateWaitsAndBounces drives the gate through a stub: tokens below
// the stub's applied horizon pass (counted as waits when the gate had to
// work), tokens above it bounce with the transient replica-behind code, and
// both outcomes surface in the STATS trailer. Also pins the session floor:
// a session's min-LSN never goes backwards, so a later token-less request
// still gates at the highest token the session has presented.
func TestReadGateWaitsAndBounces(t *testing.T) {
	const applied = 100
	gate := func(minLSN uint64) (bool, error) {
		if minLSN > applied {
			return true, fmt.Errorf("%w: applied %d < min %d", core.ErrReplicaBehind, applied, minLSN)
		}
		return true, nil
	}
	_, _, addr := newTestServer(t, Config{ReadGate: gate})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ExecAt("SELECT id FROM t", applied-1); err != nil {
		t.Fatalf("satisfiable token bounced: %v", err)
	}
	_, err = cl.ExecAt("SELECT id FROM t", applied+1)
	if !errors.Is(err, core.ErrReplicaBehind) {
		t.Fatalf("unsatisfiable token error = %v, want ErrReplicaBehind", err)
	}
	if !core.IsTransient(err) {
		t.Fatalf("replica-behind not transient: %v", err)
	}
	// Session floor: the same connection now refuses even token-less reads —
	// this session has seen LSN applied+1 and must never travel back.
	if _, err := cl.Exec("SELECT id FROM t"); !errors.Is(err, core.ErrReplicaBehind) {
		t.Fatalf("session floor forgotten: %v", err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadGateWaits == 0 {
		t.Fatalf("gate waits not counted: %+v", st)
	}
	if st.ReadGateBounces < 2 {
		t.Fatalf("gate bounces not counted: %+v", st)
	}
}

// TestOldPeerTokenlessFrames: a pre-token peer sends HELLO/EXEC/QOPEN with
// no trailing min-LSN. Against a gated server this must behave exactly as
// before — the gate only engages when a token is presented — and the
// response trailers the new server adds are bytes an old parser never
// reaches. A tokened EXEC on the same server bounces with the new code.
func TestOldPeerTokenlessFrames(t *testing.T) {
	gate := func(minLSN uint64) (bool, error) {
		return true, fmt.Errorf("%w: always behind", core.ErrReplicaBehind)
	}
	_, _, addr := newTestServer(t, Config{ReadGate: gate})
	rc := dialRaw(t, addr)

	// Token-less HELLO (the exact frame an old client sends) is not gated.
	rc.hello(t, "")

	// Token-less EXEC passes the gate untouched; the response carries the
	// old fields first, so a parser that stops early still reads them.
	rc.send(t, wire.OpExec, (&wire.Builder{}).Str("CREATE TABLE t (id INT)").Take())
	status, r := rc.recv(t)
	if status != wire.StOK {
		t.Fatalf("token-less EXEC gated, status %d", status)
	}
	r.Str() // message
	r.U32() // affected
	if r.Err() != nil {
		t.Fatalf("old-peer fields unreadable: %v", r.Err())
	}

	// Token-less QOPEN is not gated either.
	rc.send(t, wire.OpQOpen, (&wire.Builder{}).Str("SELECT id FROM t").Take())
	if status, _ := rc.recv(t); status != wire.StOK {
		t.Fatalf("token-less QOPEN gated, status %d", status)
	}

	// The moment a token is presented, the gate engages and the bounce
	// travels as the replica-behind error code.
	rc.send(t, wire.OpExec, (&wire.Builder{}).Str("SELECT id FROM t").U64(12345).Take())
	status, r = rc.recv(t)
	if status != wire.StErr {
		t.Fatal("tokened EXEC passed an always-bouncing gate")
	}
	if code := r.U16(); code != wire.ECodeReplicaBehind {
		t.Fatalf("error code %d, want ECodeReplicaBehind", code)
	}
}
