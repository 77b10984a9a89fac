package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/wire"
)

// newTestServer starts a server on loopback and returns it with its engine
// and bound address.
func newTestServer(t *testing.T, cfg Config) (*Server, *core.DB, string) {
	t.Helper()
	db, err := core.Open(core.Config{})
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
	return srv, db, ln.Addr().String()
}

// kvTable creates the table KV through SQL and returns its ID; the tests
// write raw images to it through the record verbs.
func kvTable(t *testing.T, cl *client.Client) ts.TableID {
	t.Helper()
	if _, err := cl.Exec("CREATE TABLE KV (v TEXT)"); err != nil {
		t.Fatal(err)
	}
	ids, err := cl.TableIDs("KV")
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// rawConn speaks the protocol directly, for frame-level tests.
type rawConn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, br: bufio.NewReader(nc)}
}

func (rc *rawConn) send(t *testing.T, op byte, body []byte) {
	t.Helper()
	if _, err := wire.WriteFrame(rc.nc, op, body); err != nil {
		t.Fatal(err)
	}
}

func (rc *rawConn) recv(t *testing.T) (byte, *wire.Parser) {
	t.Helper()
	status, body, err := wire.ReadFrame(rc.br)
	if err != nil {
		t.Fatal(err)
	}
	return status, wire.NewParser(body)
}

func helloBody(token string) []byte {
	return (&wire.Builder{}).Hello(token, 0).Take()
}

// sqlBody is an EXEC/QOPEN request body: the statement, then the min-LSN
// token (zero: none).
func sqlBody(text string, minLSN uint64) []byte {
	return (&wire.Builder{}).Str(text).U64(minLSN).Take()
}

func (rc *rawConn) hello(t *testing.T, token string) {
	t.Helper()
	rc.send(t, wire.OpHello, helloBody(token))
	status, _ := rc.recv(t)
	if status != wire.StOK {
		t.Fatalf("handshake refused, status %d", status)
	}
}

func TestAuth(t *testing.T) {
	srv, _, addr := newTestServer(t, Config{Token: "secret"})
	_ = srv

	// Wrong token: one error frame with the auth code, then hangup.
	rc := dialRaw(t, addr)
	rc.send(t, wire.OpHello, helloBody("wrong"))
	status, r := rc.recv(t)
	if status != wire.StErr {
		t.Fatalf("bad token accepted, status %d", status)
	}
	if code := r.U16(); code != wire.ECodeAuth {
		t.Fatalf("error code %d, want ECodeAuth", code)
	}
	rc.nc.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := wire.ReadFrame(rc.br); err == nil {
		t.Fatal("connection stayed open after failed handshake")
	}

	// A request before HELLO is refused.
	rc2 := dialRaw(t, addr)
	rc2.send(t, wire.OpPing, nil)
	if status, _ := rc2.recv(t); status != wire.StErr {
		t.Fatal("unauthenticated PING accepted")
	}

	// The client surfaces a wrong token at Dial.
	if _, err := client.Dial(client.Config{Addr: addr, Token: "wrong"}); !errors.Is(err, wire.ErrAuth) {
		t.Fatalf("client dial error = %v, want ErrAuth", err)
	}
	cl, err := client.Dial(client.Config{Addr: addr, Token: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestExecAndQuery(t *testing.T) {
	srv, db, addr := newTestServer(t, Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec("CREATE TABLE t (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if _, err := cl.Exec("INSERT INTO t VALUES (1, 'x')"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("COUNT rows = %+v", res.Rows)
	}

	cu, err := cl.Query("SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := cu.Columns(); len(got) != 2 || got[0] != "id" {
		t.Fatalf("columns = %v", got)
	}
	if cu.SnapshotTS() == 0 {
		t.Fatal("cursor reports no snapshot")
	}
	// The cursor's snapshot pins the server, but TG confines it to the table
	// its plan scans once it is long-lived: updates to another table are
	// reclaimed while it stays open.
	if _, err := cl.Exec("CREATE TABLE hot (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO hot VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := cl.Exec(fmt.Sprintf("UPDATE hot SET v = %d WHERE id = 1", i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(gc.DefaultLongLivedThreshold + 20*time.Millisecond)
	if run := db.GC().RunTG(); run.SnapshotsScoped != 1 || run.Versions == 0 {
		t.Fatalf("TG did not confine the remote cursor to t: %s", run)
	}
	var rows int
	for !cu.Exhausted() {
		chunk, _, err := cu.Fetch(3)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(chunk)
		if len(chunk) > 3 {
			t.Fatalf("chunk of %d rows, asked for 3", len(chunk))
		}
	}
	if rows != 7 {
		t.Fatalf("cursor streamed %d rows, want 7", rows)
	}
	if err := cu.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.cursorsOpen.Load() != 0 {
		t.Fatalf("cursorsOpen = %d after close", srv.cursorsOpen.Load())
	}
}

func TestExplicitTransactionVerbs(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tid := kvTable(t, cl)
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tx.Insert(tid, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tid, rid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Rolled-back work is invisible.
	tx2, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update(tid, rid, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()

	tx3, err := cl.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tx3.Abort()
	img, err := tx3.Get(tid, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != "v2" {
		t.Fatalf("img = %q, want v2", img)
	}
	var seen int
	if err := tx3.Scan(tid, func(_ ts.RID, _ []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("scan saw %d records, want 1", seen)
	}
}

func TestPipelining(t *testing.T) {
	srv, _, addr := newTestServer(t, Config{})
	_ = srv
	rc := dialRaw(t, addr)
	rc.hello(t, "")

	// Write a burst of requests without reading; responses must come back
	// in order: 8 PINGs then one STATS.
	var buf []byte
	for i := 0; i < 8; i++ {
		buf = appendFrame(buf, wire.OpPing, nil)
	}
	buf = appendFrame(buf, wire.OpStats, nil)
	if _, err := rc.nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		status, _ := rc.recv(t)
		if status != wire.StOK {
			t.Fatalf("pipelined ping %d: status %d", i, status)
		}
	}
	status, r := rc.recv(t)
	if status != wire.StOK {
		t.Fatalf("pipelined stats: status %d", status)
	}
	st := wire.DecodeStats(r)
	if st.Requests < 9 {
		t.Fatalf("stats saw %d requests, want >= 9", st.Requests)
	}
}

func appendFrame(buf []byte, op byte, body []byte) []byte {
	w := &wire.Builder{}
	w.U32(uint32(len(body) + 1)).U8(op).Raw(body)
	return append(buf, w.Take()...)
}

func TestConnLimit(t *testing.T) {
	srv, _, addr := newTestServer(t, Config{MaxConns: 1})

	rc := dialRaw(t, addr)
	rc.hello(t, "")

	// The second connection gets a diagnosable error frame, not a hangup.
	rc2 := dialRaw(t, addr)
	rc2.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	status, body, err := wire.ReadFrame(rc2.br)
	if err != nil {
		t.Fatalf("over-limit conn: %v", err)
	}
	if status != wire.StErr {
		t.Fatalf("over-limit conn status %d", status)
	}
	if code := wire.NewParser(body).U16(); code != wire.ECodeTooManyConns {
		t.Fatalf("error code %d, want ECodeTooManyConns", code)
	}

	// Closing the first frees the slot.
	rc.nc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.connsActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	rc3 := dialRaw(t, addr)
	rc3.hello(t, "")
}

// TestAbruptDisconnectReleasesCursor is the GC-correctness property of the
// service layer: a client that opens a query cursor, fetches a chunk, and
// vanishes without QCLOSE must not pin the snapshot horizon — the server
// releases the cursor when the TCP connection dies, and its announcement is
// retracted.
func TestAbruptDisconnectReleasesCursor(t *testing.T) {
	srv, db, addr := newTestServer(t, Config{})

	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}

	rc := dialRaw(t, addr)
	rc.hello(t, "")
	rc.send(t, wire.OpQOpen, sqlBody("SELECT id FROM t", 0))
	status, r := rc.recv(t)
	if status != wire.StOK {
		t.Fatal("QOPEN failed")
	}
	id := r.U32()
	rc.send(t, wire.OpQFetch, (&wire.Builder{}).U32(id).U32(4).Take())
	if status, _ := rc.recv(t); status != wire.StOK {
		t.Fatal("QFETCH failed")
	}
	if srv.cursorsOpen.Load() != 1 {
		t.Fatalf("cursorsOpen = %d", srv.cursorsOpen.Load())
	}
	if db.Manager().View().Len() == 0 {
		t.Fatal("cursor snapshot not announced")
	}

	// Abrupt death: TCP close, no QCLOSE verb.
	rc.nc.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		pinned := db.Manager().View().Len() > 0
		if srv.cursorsOpen.Load() == 0 && !pinned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor still pinned after disconnect: open=%d pinned=%v",
				srv.cursorsOpen.Load(), pinned)
		}
		time.Sleep(time.Millisecond)
	}
	if srv.cursorsReaped.Load() == 0 {
		t.Fatal("reap counter did not move")
	}
}

// TestGracefulDrain covers Shutdown: the request in flight when drain begins
// — a frame of one operation or a BATCH of several — completes with its real
// response, new connections are refused, and every session resource (cursors,
// their pinned snapshots) is released by the time Shutdown returns.
func TestGracefulDrain(t *testing.T) {
	// Hold the first PING and the first BATCH in flight via the request
	// hook, configured before the server starts so the seam is immutable
	// while connections run.
	inFlight := make(chan struct{}, 2)
	release := make(chan struct{})
	var pingOnce, batchOnce sync.Once
	hold := func() {
		inFlight <- struct{}{}
		<-release
	}
	srv, db, addr := newTestServer(t, Config{
		testHookRequest: func(op byte) {
			switch op {
			case wire.OpPing:
				pingOnce.Do(hold)
			case wire.OpBatch:
				batchOnce.Do(hold)
			}
		},
	})

	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	// A session holding an open cursor (a pinned snapshot) through the drain.
	rc := dialRaw(t, addr)
	rc.hello(t, "")
	rc.send(t, wire.OpQOpen, sqlBody("SELECT id FROM t", 0))
	if status, _ := rc.recv(t); status != wire.StOK {
		t.Fatal("QOPEN failed")
	}

	rc.send(t, wire.OpPing, nil)
	<-inFlight

	// A second session with a whole transaction read off the socket.
	tid := kvTable(t, cl)
	rb := dialRaw(t, addr)
	rb.hello(t, "")
	rb.sendBatch(t,
		batchOp{wire.OpBegin, []byte{0}},
		batchOp{wire.OpInsert, (&wire.Builder{}).U32(uint32(tid)).Bytes([]byte("v")).Take()},
		batchOp{wire.OpCommit, nil},
	)
	<-inFlight

	done := make(chan struct{})
	go func() {
		srv.Shutdown(10 * time.Second)
		close(done)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New connections are refused while draining (listener is closed).
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, rerr := wire.ReadFrame(bufio.NewReader(nc)); rerr == nil {
			t.Fatal("server accepted a connection mid-drain")
		}
		nc.Close()
	}

	// The in-flight request completes with a real OK response.
	close(release)
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, _, err := wire.ReadFrame(rc.br)
	if err != nil {
		t.Fatalf("in-flight response lost: %v", err)
	}
	if status != wire.StOK {
		t.Fatalf("in-flight response status %d", status)
	}
	// So does the batch, every operation of it.
	rb.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if statuses, _ := rb.recvBatch(t); len(statuses) != 3 || statuses[2] != wire.StOK {
		t.Fatalf("in-flight batch answered %v, want three OKs", statuses)
	}

	<-done
	if got := srv.cursorsOpen.Load(); got != 0 {
		t.Fatalf("cursorsOpen = %d after drain", got)
	}
	if db.Manager().View().Len() > 0 {
		t.Fatal("snapshot still pinned after drain")
	}
	// The drained connections are closed.
	for _, c := range []*rawConn{rc, rb} {
		c.nc.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := wire.ReadFrame(c.br); err == nil {
			t.Fatal("connection survived drain")
		}
	}
}

// TestTPCCLoopback is the end-to-end acceptance run: the unchanged TPC-C
// driver loads and runs through internal/client against a loopback server,
// and the consistency checks pass over the same wire path.
func TestTPCCLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TPC-C is not a -short test")
	}
	srv, _, addr := newTestServer(t, Config{})
	_ = srv
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	driver, err := tpcc.NewWithBackend(tpcc.RemoteBackend(cl), tpcc.Config{
		Warehouses:           2,
		Districts:            2,
		CustomersPerDistrict: 5,
		Items:                20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Load(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 1; w <= 2; w++ {
		wk := driver.NewWorker(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(40, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := driver.Check(); err != nil {
		t.Fatalf("consistency check over the wire: %v", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.Txn.TxnsCommitted == 0 {
		t.Fatalf("stats did not record the run: %+v", st)
	}
}

// TestSlowReaderWriteTimeoutReapsConn is the write-side counterpart of the
// abrupt-disconnect property: a peer that stays connected but stops reading
// (a stalled or partitioned client) backpressures the server's response
// writes until WriteTimeout fires; the connection is then reaped and every
// session resource — the open cursor and its pinned snapshot — is released,
// so a slow reader cannot pin the GC horizon past the write deadline.
func TestSlowReaderWriteTimeoutReapsConn(t *testing.T) {
	srv, db, addr := newTestServer(t, Config{WriteTimeout: 300 * time.Millisecond})

	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE t (id INT, pad TEXT)"); err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 16<<10)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < 32; i++ { // ~512KB per full SELECT response
		if _, err := cl.Exec("INSERT INTO t VALUES (1, '" + string(pad) + "')"); err != nil {
			t.Fatal(err)
		}
	}

	// The slow reader: open a cursor (pinning a snapshot), then pipeline
	// SELECTs whose responses it never reads.
	rc := dialRaw(t, addr)
	rc.hello(t, "")
	rc.send(t, wire.OpQOpen, sqlBody("SELECT id FROM t", 0))
	if status, _ := rc.recv(t); status != wire.StOK {
		t.Fatal("QOPEN failed")
	}
	if srv.cursorsOpen.Load() != 1 {
		t.Fatalf("cursorsOpen = %d", srv.cursorsOpen.Load())
	}
	if db.Manager().View().Len() == 0 {
		t.Fatal("cursor snapshot not announced")
	}
	for i := 0; i < 20; i++ { // ~10MB of pending responses: far past any socket buffer
		rc.send(t, wire.OpExec, sqlBody("SELECT id, pad FROM t", 0))
	}

	// Do not read. The server must give up within WriteTimeout and reap the
	// session: cursor closed, snapshot released, horizon free to advance.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pinned := db.Manager().View().Len() > 0
		if srv.cursorsOpen.Load() == 0 && !pinned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow reader still pins the horizon: open=%d pinned=%v",
				srv.cursorsOpen.Load(), pinned)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.cursorsReaped.Load() == 0 {
		t.Fatal("reap counter did not move")
	}
}

// TestUnknownPlacementKindRefused: OPSETPLACEMENT with a kind the server does
// not know is a bad request, even on a single node that ignores placements.
func TestUnknownPlacementKindRefused(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetPlacement(1, engine.Placement{Kind: engine.PlaceReplicated}); err != nil {
		t.Fatalf("replicated placement: %v", err)
	}
	if err := cl.SetPlacement(1, engine.Placement{Kind: engine.PlaceReplicated + 1}); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("unknown placement kind: %v, want wire.ErrBadRequest", err)
	}
}
