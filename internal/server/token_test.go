package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
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

// TestVersionGate: the protocol version is the only compatibility rule. A
// HELLO carrying another version is refused with a message naming both, and
// the connection is not authenticated by it; within a version every layout is
// fixed, so a request with bytes past its last field is refused too.
func TestVersionGate(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})

	// A v1 HELLO, exactly as a v1 client framed it (no min-LSN field).
	rc := dialRaw(t, addr)
	rc.send(t, wire.OpHello, (&wire.Builder{}).Raw([]byte(wire.Magic)).U8(1).Str("").Take())
	status, r := rc.recv(t)
	if status != wire.StErr {
		t.Fatal("v1 HELLO accepted")
	}
	code, msg := r.U16(), r.Str()
	if code != wire.ECodeBadRequest || !strings.Contains(msg, "version 1") ||
		!strings.Contains(msg, fmt.Sprintf("want %d", wire.Version)) {
		t.Fatalf("refusal = code %d %q, want ErrBadRequest naming versions 1 and %d", code, msg, wire.Version)
	}
	// Unauthenticated: the server hangs up after the one error frame rather
	// than serving the PING that follows.
	_, _ = wire.WriteFrame(rc.nc, wire.OpPing, nil)
	if _, _, err := wire.ReadFrame(rc.br); err == nil {
		t.Fatal("connection served a request after a refused handshake")
	}

	// The version before this one framed HELLO exactly as this one does; it
	// is refused by its number all the same — there is no fallback to
	// per-operation frames for a peer that cannot send a BATCH.
	rc = dialRaw(t, addr)
	rc.send(t, wire.OpHello, (&wire.Builder{}).Raw([]byte(wire.Magic)).U8(wire.Version-1).Str("").U64(0).Take())
	status, r = rc.recv(t)
	if code, msg := r.U16(), r.Str(); status != wire.StErr || code != wire.ECodeBadRequest ||
		!strings.Contains(msg, fmt.Sprintf("version %d, want %d", wire.Version-1, wire.Version)) {
		t.Fatalf("HELLO of version %d: status %d code %d %q", wire.Version-1, status, code, msg)
	}

	// A HELLO of this version without the (always present) min-LSN field is
	// malformed.
	rc = dialRaw(t, addr)
	rc.send(t, wire.OpHello, (&wire.Builder{}).Raw([]byte(wire.Magic)).U8(wire.Version).Str("").Take())
	if status, r := rc.recv(t); status != wire.StErr || r.U16() != wire.ECodeBadRequest {
		t.Fatalf("token-less HELLO: status %d", status)
	}

	// EXEC: statement and token, nothing after; a token-less body is
	// short, a longer one has trailing bytes — both refused, session intact.
	rc = dialRaw(t, addr)
	rc.hello(t, "")
	for _, body := range [][]byte{
		(&wire.Builder{}).Str("CREATE TABLE t (id INT)").Take(),
		append(sqlBody("CREATE TABLE t (id INT)", 0), 0xAB),
	} {
		rc.send(t, wire.OpExec, body)
		status, r := rc.recv(t)
		if code := r.U16(); status != wire.StErr || code != wire.ECodeBadRequest {
			t.Fatalf("malformed EXEC (%d bytes): status %d code %d", len(body), status, code)
		}
	}
	rc.send(t, wire.OpExec, sqlBody("CREATE TABLE t (id INT)", 0))
	if status, _ := rc.recv(t); status != wire.StOK {
		t.Fatalf("well-formed EXEC after the refusals: status %d", status)
	}
}
