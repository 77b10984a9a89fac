package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/sql"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wire"
)

// conn is one client connection: a session with at most one explicit
// transaction and any number of open query cursors. All request processing
// happens on the connection's goroutine; only beginDrain touches it from
// outside, through atomics and deadline pokes that are safe concurrently.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess *sql.Session

	cursors    map[uint32]*sql.QueryCursor
	nextCursor uint32
	authed     bool
	draining   atomic.Bool

	// minLSN is the session's consistency token: the highest min-LSN any
	// request on this connection has carried. On a gated server (a replica)
	// every token-bearing request waits until the applier reaches it or
	// bounces with ErrReplicaBehind. Single-goroutine state, like the
	// session itself.
	minLSN uint64

	// rbuf is the connection's reusable request-frame buffer: the serve loop
	// is strictly read → dispatch → write, so the previous request body is
	// dead by the next read. resp is the reusable response builder — emptied
	// before each frame is dispatched and valid until the response frame is
	// written, which also happens before the next read. Both are
	// single-goroutine state.
	rbuf []byte
	resp wire.Builder
}

// b returns the connection's response builder. A handler appends its
// response body to it only once it can no longer fail, so that fail finds
// the builder as the handler was given it: inside a BATCH the bodies of the
// operations before this one are already there.
func (c *conn) b() *wire.Builder { return &c.resp }

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReader(nc),
		bw:      bufio.NewWriter(nc),
		sess:    sql.NewSession(s.cat),
		cursors: make(map[uint32]*sql.QueryCursor),
	}
}

// beginDrain asks the connection to stop after its in-flight request: the
// flag makes the serve loop exit at the next iteration, and the expired read
// deadline unblocks a loop parked between requests.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	_ = c.nc.SetReadDeadline(time.Unix(1, 0))
}

// cleanup releases everything the session pinned. It runs exactly once, when
// the serve loop exits — on client EOF, abrupt disconnect, idle timeout,
// protocol error, or drain — so a dead peer's cursors stop blocking the
// global garbage collection horizon no later than the idle deadline.
func (c *conn) cleanup() {
	for id, qc := range c.cursors {
		qc.Close()
		delete(c.cursors, id)
		c.srv.cursorsOpen.Add(-1)
		c.srv.cursorsReaped.Inc()
	}
	c.sess.Close()
	c.nc.Close()
}

// serve runs the request loop.
func (c *conn) serve() {
	defer c.cleanup()
	for {
		if c.draining.Load() {
			return
		}
		_ = c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		op, body, rbuf, err := wire.ReadFrameInto(c.br, c.rbuf)
		c.rbuf = rbuf
		if err != nil {
			return // EOF, abrupt disconnect, idle timeout, drain poke
		}
		c.srv.bytesIn.Add(int64(5 + len(body)))
		if hook := c.srv.cfg.testHookRequest; hook != nil {
			hook(op)
		}
		if op == wire.OpReplStream {
			// Hijack: the stream handler owns the socket until it returns,
			// then the connection closes (cleanup releases the session).
			c.serveReplStream(body)
			return
		}
		start := time.Now()
		c.resp.Reset()
		status := c.dispatch(op, body)
		c.srv.requests.Inc()
		if status == wire.StErr {
			c.srv.requestErrors.Inc()
		}
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		n, err := wire.WriteFrame(c.bw, status, c.resp.Take())
		if err == nil {
			err = c.bw.Flush()
		}
		c.srv.bytesOut.Add(int64(n))
		c.srv.lat.Record(time.Since(start))
		if err != nil {
			return
		}
		if op == wire.OpHello && !c.authed {
			return // failed handshake: one error frame, then hang up
		}
	}
}

// serveReplStream handles an OpReplStream request. Refusals (no handler,
// unauthenticated, malformed request) answer with a normal error frame and
// end the connection; otherwise deadlines are cleared and the replication
// handler drives the socket until the stream ends.
func (c *conn) serveReplStream(body []byte) {
	writeErr := func(err error) {
		c.resp.Reset()
		status := c.fail(err)
		c.srv.requestErrors.Inc()
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if n, werr := wire.WriteFrame(c.bw, status, c.resp.Take()); werr == nil {
			_ = c.bw.Flush()
			c.srv.bytesOut.Add(int64(n))
		}
	}
	c.srv.requests.Inc()
	if !c.authed {
		writeErr(fmt.Errorf("%w: HELLO required", wire.ErrBadRequest))
		return
	}
	h := c.srv.cfg.Repl
	if h == nil {
		writeErr(fmt.Errorf("%w: not a replication source", wire.ErrBadRequest))
		return
	}
	r := wire.NewParser(body)
	req := wire.DecodeReplStreamRequest(r)
	if err := firstErr(r); err != nil {
		writeErr(err)
		return
	}
	// The stream manages its own liveness (heartbeats, report deadlines);
	// the session deadlines would only tear down a healthy idle stream.
	_ = c.nc.SetReadDeadline(time.Time{})
	_ = c.nc.SetWriteDeadline(time.Time{})
	if err := h.ServeStream(c.nc, c.br, c.bw, req, c.srv.Draining); err != nil && !isClosedErr(err) {
		c.srv.requestErrors.Inc()
	}
}

// fail appends an error response body and returns its status.
func (c *conn) fail(err error) byte {
	code := wire.ErrorCode(err)
	switch {
	case errors.Is(err, sql.ErrInTransaction):
		code = wire.ECodeInTransaction
	case errors.Is(err, sql.ErrNoTransaction):
		code = wire.ECodeNoTransaction
	}
	c.b().U16(code).Str(err.Error())
	return wire.StErr
}

// dispatch executes one request, appends its response body to the
// connection's builder and returns the response status.
func (c *conn) dispatch(op byte, body []byte) byte {
	if !c.authed && op != wire.OpHello {
		return c.fail(fmt.Errorf("%w: HELLO required", wire.ErrBadRequest))
	}
	// No draining check here: a frame only reaches dispatch if the drain
	// flag was clear when the serve loop read it, and such an in-flight
	// request runs to completion with its real response — drain cuts the
	// conversation off at the next loop iteration, not mid-request.
	r := wire.NewParser(body)
	switch op {
	case wire.OpHello:
		return c.hello(r)
	case wire.OpPing:
		return wire.StOK
	case wire.OpStats:
		w := c.b()
		st := c.srv.Stats()
		st.Encode(w)
		return wire.StOK
	case wire.OpExec:
		return c.exec(r)
	case wire.OpBegin:
		transSI := r.Bool()
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		if err := c.sess.Begin(transSI); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpBeginShard:
		shard, transSI := int(r.U32()), r.Bool()
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		if err := c.sess.BeginShard(shard, transSI); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpCommit:
		if err := c.sess.Commit(); err != nil {
			return c.fail(err)
		}
		// Consistency token: the stream head right after the commit, so it
		// covers the whole commit group the transaction rode in.
		c.b().U64(c.srv.tokenLSN())
		return wire.StOK
	case wire.OpRollback:
		if err := c.sess.Rollback(); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpQOpen:
		return c.qopen(r)
	case wire.OpQFetch:
		return c.qfetch(r)
	case wire.OpQClose:
		return c.qclose(r)
	case wire.OpTableIDs:
		names := wire.GetStrings(r)
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		ids, err := c.srv.eng.TableIDs(names...)
		if err != nil {
			return c.fail(err)
		}
		w := c.b().U16(uint16(len(ids)))
		for _, id := range ids {
			w.U32(uint32(id))
		}
		return wire.StOK
	case wire.OpGet:
		tid, rid := ts.TableID(r.U32()), ts.RID(r.U64())
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		var img []byte
		err := c.kv(func(tx engine.Tx) error {
			var err error
			img, err = tx.Get(tid, rid)
			return err
		})
		if err != nil {
			return c.fail(err)
		}
		c.b().Bytes(img)
		return wire.StOK
	case wire.OpInsert:
		tid, img := ts.TableID(r.U32()), r.Bytes()
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		var rid ts.RID
		err := c.kv(func(tx engine.Tx) error {
			var err error
			rid, err = tx.Insert(tid, img)
			return err
		})
		if err != nil {
			return c.fail(err)
		}
		c.b().U64(uint64(rid))
		return wire.StOK
	case wire.OpInsertAt:
		tid, hint, img := ts.TableID(r.U32()), int(r.U32()), r.Bytes()
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		var rid ts.RID
		err := c.kv(func(tx engine.Tx) error {
			var err error
			rid, err = tx.InsertAt(tid, img, hint)
			return err
		})
		if err != nil {
			return c.fail(err)
		}
		c.b().U64(uint64(rid))
		return wire.StOK
	case wire.OpHTAPEnable:
		name := r.Str()
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		if err := c.srv.cat.EnableHTAP(name); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpAggregate:
		return c.aggregate(r)
	case wire.OpSetPlacement:
		tid := ts.TableID(r.U32())
		p := engine.Placement{Kind: engine.PlacementKind(r.U8()), Size: r.U64(), Shard: int(r.U32())}
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		if err := c.srv.eng.SetPlacement(tid, p); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpUpdate:
		tid, rid, img := ts.TableID(r.U32()), ts.RID(r.U64()), r.Bytes()
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		if err := c.kv(func(tx engine.Tx) error { return tx.Update(tid, rid, img) }); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpDelete:
		tid, rid := ts.TableID(r.U32()), ts.RID(r.U64())
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		if err := c.kv(func(tx engine.Tx) error { return tx.Delete(tid, rid) }); err != nil {
			return c.fail(err)
		}
		return wire.StOK
	case wire.OpScan:
		tid := ts.TableID(r.U32())
		if err := firstErr(r); err != nil {
			return c.fail(err)
		}
		type pair struct {
			rid ts.RID
			img []byte
		}
		var pairs []pair
		err := c.kv(func(tx engine.Tx) error {
			pairs = pairs[:0]
			return tx.Scan(tid, func(rid ts.RID, img []byte) bool {
				pairs = append(pairs, pair{rid, img})
				return true
			})
		})
		if err != nil {
			return c.fail(err)
		}
		w := c.b().U32(uint32(len(pairs)))
		for _, p := range pairs {
			w.U64(uint64(p.rid)).Bytes(p.img)
		}
		return wire.StOK
	case wire.OpBatch:
		failed, err := wire.RunBatch(body, c.b(), c.batchOp)
		if err != nil {
			return c.fail(err)
		}
		if failed {
			c.srv.requestErrors.Inc()
		}
		return wire.StOK
	default:
		return c.fail(fmt.Errorf("%w: unknown opcode %d", wire.ErrBadRequest, op))
	}
}

// batchOp dispatches one operation of a BATCH: any verb but the ones that
// change what the connection is (HELLO, REPLSTREAM) or nest.
func (c *conn) batchOp(op byte, body []byte) byte {
	switch op {
	case wire.OpHello, wire.OpReplStream, wire.OpBatch:
		return c.fail(fmt.Errorf("%w: opcode %d inside a batch", wire.ErrBadRequest, op))
	}
	return c.dispatch(op, body)
}

// gate raises the session token to min and, on a gated server (a replica),
// holds the request until the applier reaches the token or bounces it with
// ErrReplicaBehind so the client retries on another endpoint.
func (c *conn) gate(min uint64) error {
	if min > c.minLSN {
		c.minLSN = min
	}
	g := c.srv.cfg.ReadGate
	if g == nil || c.minLSN == 0 {
		return nil
	}
	waited, err := g(c.minLSN)
	if waited {
		c.srv.gateWaits.Inc()
	}
	if err != nil {
		c.srv.gateBounces.Inc()
	}
	return err
}

// firstErr surfaces a parse failure, also rejecting trailing request bytes.
func firstErr(r *wire.Parser) error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Rest() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", wire.ErrBadRequest, r.Rest())
	}
	return nil
}

// kv runs a record-level operation in the session's explicit transaction if
// one is open, or as its own autocommit transaction otherwise — the same
// rule SQL statements follow.
func (c *conn) kv(fn func(tx engine.Tx) error) error {
	if tx := c.sess.Tx(); tx != nil {
		return fn(tx)
	}
	return c.srv.eng.Exec(txn.StmtSI, nil, fn)
}

func (c *conn) hello(r *wire.Parser) byte {
	// Magic and version first: a peer of another version lays the rest of
	// the body out differently, and is told so rather than "bad handshake".
	magic, ver := string(r.Raw(4)), r.U8()
	if r.Err() != nil || magic != wire.Magic {
		return c.fail(fmt.Errorf("%w: bad handshake", wire.ErrBadRequest))
	}
	if ver != wire.Version {
		return c.fail(fmt.Errorf("%w: protocol version %d, want %d", wire.ErrBadRequest, ver, wire.Version))
	}
	token, minLSN := r.Str(), r.U64()
	if err := firstErr(r); err != nil {
		return c.fail(fmt.Errorf("%w: bad handshake", wire.ErrBadRequest))
	}
	if c.srv.cfg.Token != "" && token != c.srv.cfg.Token {
		return c.fail(wire.ErrAuth)
	}
	if err := c.gate(minLSN); err != nil {
		return c.fail(err)
	}
	c.authed = true
	c.b().U8(wire.Version).U32(uint32(c.srv.eng.Shards()))
	return wire.StOK
}

func (c *conn) exec(r *wire.Parser) byte {
	text, minLSN := r.Str(), r.U64()
	if err := firstErr(r); err != nil {
		return c.fail(err)
	}
	if err := c.gate(minLSN); err != nil {
		return c.fail(err)
	}
	res, err := c.sess.Execute(text)
	if err != nil {
		return c.fail(err)
	}
	w := c.b()
	w.Str(res.Message).U32(uint32(res.Affected))
	wire.PutStrings(w, res.Columns)
	wire.PutRows(w, res.Rows)
	// Consistency token: the stream head after this statement, ≥ the
	// commit LSN of an autocommitted write.
	w.U64(c.srv.tokenLSN())
	return wire.StOK
}

// aggNames maps OpAggregate's op byte to the SQL aggregate keyword; the
// order matches htap.AggOp.
var aggNames = [...]string{"COUNT", "SUM", "MIN", "MAX"}

// aggregate serves OpAggregate: a synthesized aggregate SELECT that takes
// the column lane when one is enabled for the table and the row path
// otherwise. Pure read, so clients treat it as idempotent.
func (c *conn) aggregate(r *wire.Parser) byte {
	table, op := r.Str(), int(r.U8())
	col, groupBy := r.Str(), r.Str()
	if err := firstErr(r); err != nil {
		return c.fail(err)
	}
	if op < 0 || op >= len(aggNames) {
		return c.fail(fmt.Errorf("%w: aggregate op %d", wire.ErrBadRequest, op))
	}
	res, err := c.sess.Run(&sql.SelectStmt{
		Table:     table,
		Aggregate: aggNames[op],
		AggColumn: col,
		GroupBy:   groupBy,
	})
	if err != nil {
		return c.fail(err)
	}
	w := c.b()
	wire.PutStrings(w, res.Columns)
	wire.PutRows(w, res.Rows)
	return wire.StOK
}

func (c *conn) qopen(r *wire.Parser) byte {
	text, minLSN := r.Str(), r.U64()
	if err := firstErr(r); err != nil {
		return c.fail(err)
	}
	if err := c.gate(minLSN); err != nil {
		return c.fail(err)
	}
	qc, err := c.sess.OpenQueryCursor(text)
	if err != nil {
		return c.fail(err)
	}
	c.nextCursor++
	id := c.nextCursor
	c.cursors[id] = qc
	c.srv.cursorsOpen.Add(1)
	w := c.b().U32(id).U64(uint64(qc.SnapshotTS()))
	wire.PutStrings(w, qc.Columns())
	return wire.StOK
}

func (c *conn) qfetch(r *wire.Parser) byte {
	id, n := r.U32(), int(r.U32())
	if err := firstErr(r); err != nil {
		return c.fail(err)
	}
	qc, okc := c.cursors[id]
	if !okc {
		return c.fail(fmt.Errorf("%w: cursor %d", core.ErrCursorClosed, id))
	}
	if n <= 0 || n > 1<<16 {
		n = 1 << 10
	}
	rows, fst, err := qc.Fetch(n)
	if err != nil {
		return c.fail(err)
	}
	w := c.b().Bool(qc.Exhausted()).U64(uint64(fst.Traversed)).U64(uint64(fst.Duration))
	wire.PutRows(w, rows)
	return wire.StOK
}

func (c *conn) qclose(r *wire.Parser) byte {
	id := r.U32()
	if err := firstErr(r); err != nil {
		return c.fail(err)
	}
	qc, okc := c.cursors[id]
	if !okc {
		return c.fail(fmt.Errorf("%w: cursor %d", core.ErrCursorClosed, id))
	}
	qc.Close()
	delete(c.cursors, id)
	c.srv.cursorsOpen.Add(-1)
	return wire.StOK
}
