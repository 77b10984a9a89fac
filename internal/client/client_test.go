package client_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/server"
	"hybridgc/internal/ts"
)

// startServer runs a loopback server over a fresh engine.
func startServer(t *testing.T, scfg server.Config) (string, *core.DB) {
	t.Helper()
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, scfg)
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
	return ln.Addr().String(), db
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

// TestPoolConcurrency hammers one pooled client from many goroutines — the
// race detector's view of the pool, plus basic correctness of interleaved
// autocommit writes.
func TestPoolConcurrency(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if err := cl.Ping(); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := cl.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

// TestErrorRehydration proves the wire carries engine errors as the canonical
// sentinels: a remote write-write conflict matches core.ErrWriteConflict and
// is transient; a remote missing table matches core.ErrTableNotFound and is
// not.
func TestErrorRehydration(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tid := kvTable(t, cl)
	var rid ts.RID
	{
		tx, err := cl.Begin(false)
		if err != nil {
			t.Fatal(err)
		}
		rid, err = tx.Insert(tid, []byte("v0"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	tx1, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	defer tx1.Abort()
	tx2, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Abort()
	if err := tx1.Update(tid, rid, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err = tx2.Update(tid, rid, []byte("b"))
	if err == nil {
		t.Fatal("concurrent update of one record did not conflict")
	}
	if !errors.Is(err, core.ErrWriteConflict) {
		t.Fatalf("conflict error = %v, does not match core.ErrWriteConflict", err)
	}
	if !client.IsTransient(err) {
		t.Fatalf("remote write conflict not transient: %v", err)
	}

	tx3, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	defer tx3.Abort()
	_, err = tx3.Get(9999, 1)
	if !errors.Is(err, core.ErrTableNotFound) {
		t.Fatalf("missing-table error = %v, want core.ErrTableNotFound", err)
	}
	if client.IsTransient(err) {
		t.Fatal("table-not-found must not be transient")
	}
}

// TestRetryOverWire runs core.Retry against wire-carried conflicts: the
// second writer backs off and succeeds once the first commits — the same
// loop the TPC-C driver uses remotely.
func TestRetryOverWire(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tid := kvTable(t, cl)
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tx.Insert(tid, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	blocker, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := blocker.Update(tid, rid, []byte("held")); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		blocker.Commit()
	}()

	attempts := 0
	err = core.Retry(10, 5*time.Millisecond, func() error {
		attempts++
		tx, err := cl.Begin(false)
		if err != nil {
			return err
		}
		defer tx.Abort()
		if err := tx.Update(tid, rid, []byte("retried")); err != nil {
			return err
		}
		return tx.Commit()
	})
	if err != nil {
		t.Fatalf("retry never succeeded: %v", err)
	}
	if attempts < 2 {
		t.Fatalf("expected at least one conflicted attempt, got %d", attempts)
	}
}

// TestTxPinsConnection proves a transaction owns its pooled connection: with
// MaxConns=1, an unrelated call blocks until Commit releases the slot.
func TestTxPinsConnection(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tid := kvTable(t, cl)
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tid, []byte("v")); err != nil {
		t.Fatal(err)
	}

	pinged := make(chan error, 1)
	go func() { pinged <- cl.Ping() }()
	select {
	case err := <-pinged:
		t.Fatalf("ping completed while the only connection was pinned (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping never completed after Commit released the connection")
	}
}

// TestCursorPinsConnection is the same property for query cursors.
func TestCursorPinsConnection(t *testing.T) {
	addr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	cu, err := cl.Query("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// The cursor's connection stays out of the pool, so a concurrent Exec
	// works on the other one and the cursor keeps fetching afterwards.
	if _, err := cl.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	rows, _, err := cu.Fetch(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("cursor saw %d rows, want its snapshot's 5", len(rows))
	}
	if err := cu.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cu.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}
