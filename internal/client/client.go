// Package client is the remote counterpart of internal/server: a pooled,
// stdlib-only client for the wire protocol. A Client owns up to MaxConns
// TCP connections, reused across calls; transactions and query cursors pin
// one connection (they are per-session state on the server) until
// Commit/Abort/Close returns it to the pool. A transaction sends BATCH frames
// and nothing else: Tx.Batch queues operations that do not depend on each
// other and pays one round trip for them, BEGIN riding at the head of the
// first frame and COMMIT at the tail of the last.
//
// Engine errors cross the wire as codes and rehydrate into the canonical
// sentinels (core.ErrWriteConflict, core.ErrVersionPressure,
// core.ErrFailStop, ...), so core.IsTransient and core.Retry treat a remote
// rejection exactly like a local one — the degradation ladder of PR 1
// propagates to remote callers unchanged.
package client

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
	"hybridgc/internal/ts"
	"hybridgc/internal/wire"
)

// ErrClosed reports an operation on a closed client.
var ErrClosed = errors.New("client: closed")

// Config tunes a Client.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Token is presented in HELLO.
	Token string
	// MaxConns bounds the pool (<=0 selects 8).
	MaxConns int
	// DialTimeout bounds one dial including its HELLO handshake (<=0
	// selects 5s). A hung dial therefore holds its pool slot for at most
	// this long; callers holding idle connections are never blocked by it.
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response round trip (<=0 selects
	// 30s). Every call sets it as the connection's write and read deadline,
	// so a partitioned server surfaces a timeout rather than a hang.
	RequestTimeout time.Duration
	// RedialBase/RedialMax bound the background redialer's full-jitter
	// exponential backoff after dial failures (<=0 select 50ms / 2s). While
	// the backoff clock runs, calls that would need a fresh connection
	// fail fast with core.ErrUnavailable (transient) instead of piling up
	// on a dead address.
	RedialBase time.Duration
	RedialMax  time.Duration
}

func (c *Config) fill() {
	if c.MaxConns <= 0 {
		c.MaxConns = 8
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RedialBase <= 0 {
		c.RedialBase = 50 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = 2 * time.Second
	}
}

// Client is a pooled connection to one server.
type Client struct {
	cfg Config

	mu        sync.Mutex
	idle      []*Conn
	closed    bool
	failN     int           // consecutive dial failures
	downUntil time.Time     // fast-fail window after a dial failure
	redialing bool          // background redialer running
	sem       chan struct{} // one slot per live or dialable connection

	redials atomic.Int64 // background redial attempts
	// shards caches the server's shard count from the HELLO response (1 on a
	// single-node server) — the shard map a routing caller (the TPC-C
	// driver's by-warehouse affinity) uses to pick BeginShard targets without
	// a STATS round trip.
	shards atomic.Int64
}

// Dial creates a client and eagerly dials one connection so a bad address or
// token fails here rather than on first use.
func Dial(cfg Config) (*Client, error) {
	cfg.fill()
	c := &Client{cfg: cfg, sem: make(chan struct{}, cfg.MaxConns)}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	// Idle connections hold no pool slot: get() acquires a slot first and
	// then reuses an idle connection or dials.
	c.mu.Lock()
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
	return c, nil
}

// Close closes every pooled connection. In-flight transactions and cursors
// on checked-out connections fail on their next use.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, cn := range c.idle {
		cn.nc.Close()
	}
	c.idle = nil
}

// dial opens and handshakes one connection. The whole exchange — TCP
// connect plus HELLO round trip — runs under DialTimeout, so a peer that
// accepts but never answers cannot pin the dialer (and its pool slot) for a
// full RequestTimeout.
func (c *Client) dial() (*Conn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &Conn{nc: nc, br: bufio.NewReader(nc), timeout: c.cfg.DialTimeout}
	body := (&wire.Builder{}).Hello(c.cfg.Token, 0)
	r, err := cn.roundTrip(wire.OpHello, body.Take())
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	got, shards := r.U8(), r.U32()
	if got != wire.Version || r.Err() != nil {
		nc.Close()
		return nil, fmt.Errorf("client: server speaks protocol %d, want %d", got, wire.Version)
	}
	c.shards.Store(int64(shards))
	cn.timeout = c.cfg.RequestTimeout
	return cn, nil
}

// ShardCount reports the server's shard count as negotiated in HELLO (1 on a
// single-node server).
func (c *Client) ShardCount() int { return int(c.shards.Load()) }

// get checks a connection out of the pool, dialing when the pool has free
// capacity and no idle connection. While the redial backoff clock runs (a
// recent dial failed), calls that would need a fresh dial fail fast with
// core.ErrUnavailable instead of queueing another doomed connect — the
// background redialer owns recovery, and callers using idle connections are
// unaffected.
func (c *Client) get() (*Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()
	c.sem <- struct{}{}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.sem
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	if fails, until := c.failN, c.downUntil; fails > 0 && time.Now().Before(until) {
		c.mu.Unlock()
		<-c.sem
		return nil, fmt.Errorf("%w: %s down after %d failed dials, redialing",
			core.ErrUnavailable, c.cfg.Addr, fails)
	}
	c.mu.Unlock()
	cn, err := c.dial()
	if err != nil {
		<-c.sem
		c.noteDialFailure()
		return nil, fmt.Errorf("%w: %v", core.ErrUnavailable, err)
	}
	c.noteDialSuccess()
	return cn, nil
}

// noteDialFailure records a failed dial, arms the fast-fail window with a
// full-jitter exponential backoff, and makes sure exactly one background
// redialer is working the address.
func (c *Client) noteDialFailure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.downUntil = time.Now().Add(core.Backoff(c.failN, c.cfg.RedialBase, c.cfg.RedialMax))
	c.failN++
	if !c.redialing {
		c.redialing = true
		go c.redialLoop()
	}
}

// noteDialSuccess clears the backoff state.
func (c *Client) noteDialSuccess() {
	c.mu.Lock()
	c.failN, c.downUntil = 0, time.Time{}
	c.mu.Unlock()
}

// redialLoop restores connectivity after dial failures: it keeps attempting
// one dial under the jittered backoff schedule until a connection
// handshakes (parked in the idle pool for the next caller) or the client
// closes. Exactly one loop runs at a time; it does not hold a pool slot, so
// it never competes with callers for capacity.
func (c *Client) redialLoop() {
	for {
		c.mu.Lock()
		if c.closed {
			c.redialing = false
			c.mu.Unlock()
			return
		}
		attempt := c.failN
		c.mu.Unlock()

		core.BackoffSleep(core.Backoff(attempt, c.cfg.RedialBase, c.cfg.RedialMax))
		c.redials.Add(1)
		cn, err := c.dial()
		c.mu.Lock()
		if c.closed {
			c.redialing = false
			c.mu.Unlock()
			if cn != nil {
				cn.nc.Close()
			}
			return
		}
		if err != nil {
			c.downUntil = time.Now().Add(core.Backoff(c.failN, c.cfg.RedialBase, c.cfg.RedialMax))
			c.failN++
			c.mu.Unlock()
			continue
		}
		c.failN, c.downUntil = 0, time.Time{}
		c.idle = append(c.idle, cn)
		c.redialing = false
		c.mu.Unlock()
		return
	}
}

// Redials reports background redial attempts — observability for tests and
// the chaos harness.
func (c *Client) Redials() int64 { return c.redials.Load() }

// put returns a connection; broken connections are discarded so the next
// get dials fresh.
func (c *Client) put(cn *Conn) {
	c.mu.Lock()
	if c.closed || cn.broken {
		c.mu.Unlock()
		cn.nc.Close()
		<-c.sem
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
	<-c.sem
}

// do runs one round trip on a pooled connection.
func (c *Client) do(op byte, body []byte) (*wire.Parser, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	r, err := cn.roundTrip(op, body)
	c.put(cn)
	return r, err
}

// isTransportErr reports a connection-level failure — not a server-reported
// error frame (*wire.Error), not pool shutdown, not the fast-fail path. Only
// transport failures leave a request's outcome unknown.
func isTransportErr(err error) bool {
	if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, core.ErrUnavailable) {
		return false
	}
	var we *wire.Error
	return !errors.As(err, &we)
}

// doIdempotent is do for request types that are safe to repeat (pure reads
// with no session state): a transport failure poisons the connection and the
// call transparently retries once on a fresh one. Writes never come through
// here — a lost response leaves their outcome ambiguous.
func (c *Client) doIdempotent(op byte, body []byte) (*wire.Parser, error) {
	r, err := c.do(op, body)
	if !isTransportErr(err) {
		return r, err
	}
	return c.do(op, body)
}

// doB is do with a pooled request builder, released after the write
// (WriteFrame copies the body out before sending).
func (c *Client) doB(op byte, b *wire.Builder) (*wire.Parser, error) {
	r, err := c.do(op, b.Take())
	wire.PutBuilder(b)
	return r, err
}

// Ping round-trips a PING (idempotent: retried once across a broken
// connection).
func (c *Client) Ping() error {
	_, err := c.doIdempotent(wire.OpPing, nil)
	return err
}

// Stats fetches engine and service statistics (idempotent: retried once
// across a broken connection).
func (c *Client) Stats() (wire.Stats, error) {
	r, err := c.doIdempotent(wire.OpStats, nil)
	if err != nil {
		return wire.Stats{}, err
	}
	st := wire.DecodeStats(r)
	return st, r.Err()
}

// Result is one statement's outcome, mirroring sql.Result in wire types.
type Result struct {
	Message  string
	Affected int
	Columns  []string
	Rows     [][]wire.Datum
	// Token is the server's session consistency token after the statement
	// (the WAL stream head, ≥ the commit LSN of an autocommitted write).
	// Zero from token-less engines (memory-only, sharded); sessions track
	// their running maximum for read-your-writes.
	Token uint64
}

func decodeResult(r *wire.Parser) (*Result, error) {
	res := &Result{Message: r.Str(), Affected: int(r.U32())}
	res.Columns = wire.GetStrings(r)
	res.Rows = wire.GetRows(r)
	res.Token = r.U64()
	return res, r.Err()
}

// Exec runs one autocommit SQL statement on a pooled connection. Statements
// that change session state (BEGIN/COMMIT/ROLLBACK) must go through Begin —
// on a pooled connection the session they would affect is arbitrary.
func (c *Client) Exec(sqlText string) (*Result, error) {
	return c.ExecAt(sqlText, 0)
}

// ExecAt is Exec carrying a min-LSN consistency token: a token-gating server
// (a replica) holds the statement until its applier reaches minLSN or
// bounces with the transient core.ErrReplicaBehind so the caller retries on
// another endpoint. Zero means no token.
func (c *Client) ExecAt(sqlText string, minLSN uint64) (*Result, error) {
	r, err := c.doB(wire.OpExec, wire.GetBuilder().Str(sqlText).U64(minLSN))
	if err != nil {
		return nil, err
	}
	return decodeResult(r)
}

// TableIDs resolves engine table names (idempotent: retried once across a
// broken connection).
func (c *Client) TableIDs(names ...string) ([]ts.TableID, error) {
	w := wire.GetBuilder()
	wire.PutStrings(w, names)
	r, err := c.doIdempotent(wire.OpTableIDs, w.Take())
	wire.PutBuilder(w)
	if err != nil {
		return nil, err
	}
	n := int(r.U16())
	out := make([]ts.TableID, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		out = append(out, ts.TableID(r.U32()))
	}
	return out, r.Err()
}

// Begin starts a remote transaction, pinning one connection until
// Commit/Abort. transSI selects transaction-level snapshot isolation. The
// BEGIN itself costs no round trip: it heads the transaction's first frame,
// so the server opens the transaction (and takes a Trans-SI snapshot) when
// that frame arrives.
func (c *Client) Begin(transSI bool) (*Tx, error) {
	tx, err := c.newTx()
	if err != nil {
		return nil, err
	}
	tx.b.op(wire.OpBegin).Bool(transSI)
	tx.b.end()
	return tx, nil
}

// BeginShard starts a remote transaction pinned to one shard — the
// single-shard fast path on a sharded server, bypassing the cross-shard
// router. Operations referencing records on other shards fail. Like Begin it
// sends nothing yet; a shard the server does not have fails the first frame.
func (c *Client) BeginShard(shard int, transSI bool) (*Tx, error) {
	tx, err := c.newTx()
	if err != nil {
		return nil, err
	}
	tx.b.op(wire.OpBeginShard).U32(uint32(shard)).Bool(transSI)
	tx.b.end()
	return tx, nil
}

// newTx pins a connection for a transaction whose BEGIN the caller queues
// next.
func (c *Client) newTx() (*Tx, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	tx := &Tx{c: c, cn: cn}
	tx.b.tx = tx
	tx.b.reset()
	tx.b.begin = true
	return tx, nil
}

// SetPlacement installs a table's shard-placement policy on the server; it
// must run before the table receives rows. A single-node server accepts and
// ignores it.
func (c *Client) SetPlacement(tid ts.TableID, p engine.Placement) error {
	_, err := c.doB(wire.OpSetPlacement, wire.GetBuilder().
		U32(uint32(tid)).U8(uint8(p.Kind)).U64(p.Size).U32(uint32(p.Shard)))
	return err
}

// Aggregate ops, mirroring htap.AggOp without importing that package into
// the client.
const (
	AggCount byte = iota
	AggSum
	AggMin
	AggMax
)

// EnableHTAP arms the background row→column migrator for a SQL table on
// every shard of the server; analytical aggregates over the table are then
// served from dictionary-encoded column chunks once the migrator catches
// up. The server must have been started with an HTAP manager attached.
func (c *Client) EnableHTAP(table string) error {
	_, err := c.doB(wire.OpHTAPEnable, wire.GetBuilder().Str(table))
	return err
}

// Aggregate runs COUNT/SUM/MIN/MAX (optionally GROUP BY groupBy) over a SQL
// table — the OLAP verb. col is ignored for AggCount; groupBy may be empty
// for a scalar result. The server serves the query from the column lane
// when one is enabled and from MVCC row reads otherwise, so the call is
// valid either way (idempotent: retried once across a broken connection).
func (c *Client) Aggregate(table string, op byte, col, groupBy string) (*Result, error) {
	w := wire.GetBuilder().Str(table).U8(op).Str(col).Str(groupBy)
	r, err := c.doIdempotent(wire.OpAggregate, w.Take())
	wire.PutBuilder(w)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: wire.GetStrings(r)}
	res.Rows = wire.GetRows(r)
	return res, r.Err()
}

// Query opens a remote SQL cursor, pinning one connection until Close. The
// server-side cursor holds a snapshot scoped to the query's table — the
// canonical remote long-lived garbage collection blocker.
func (c *Client) Query(sqlText string) (*Cursor, error) {
	return c.QueryAt(sqlText, 0)
}

// QueryAt is Query carrying a min-LSN consistency token (see ExecAt): the
// cursor's snapshot is taken only once the server has applied up to minLSN.
func (c *Client) QueryAt(sqlText string, minLSN uint64) (*Cursor, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	r, err := cn.roundTripB(wire.OpQOpen, wire.GetBuilder().Str(sqlText).U64(minLSN))
	if err != nil {
		c.put(cn)
		// A broken open pinned nothing: safe to retry as a fresh cursor.
		if isTransportErr(err) {
			err = fmt.Errorf("%w: %v", core.ErrTxnBroken, err)
		}
		return nil, err
	}
	cu := &Cursor{c: c, cn: cn, id: r.U32(), snapTS: ts.CID(r.U64()), cols: wire.GetStrings(r)}
	if err := r.Err(); err != nil {
		c.put(cn)
		return nil, err
	}
	return cu, nil
}

// Tx is a remote transaction bound to one pooled connection. Its record
// operations mirror core.Tx, so code written against that shape runs
// remotely unchanged — one frame per call. Code that knows which of its
// operations do not depend on each other queues them on Batch and pays one
// round trip for all of them.
//
// Everything a transaction sends is a BATCH frame, and its failures are
// classified per frame. A transport failure on a frame that carries COMMIT
// surfaces core.ErrCommitAmbiguous — NOT transient, because the commit may
// have become durable before the connection died, and a blind re-run could
// apply the transaction twice. On any other frame it surfaces
// core.ErrTxnBroken — transient, because the server aborts the session's
// transaction the moment its connection dies, so nothing of the attempt
// survives and core.Retry can safely re-run the whole transaction. Either
// way the Tx is finished. A failure the server reports (the first failed
// operation's error; nothing after it ran) leaves the transaction open for
// Abort, with two exceptions that finish it: the failed operation is the
// queued BEGIN — no transaction exists, and anything sent afterwards would
// reach the server as an autocommit write — or it is the COMMIT itself.
type Tx struct {
	c         *Client
	cn        *Conn
	done      bool
	commitLSN uint64
	b         Batch
}

var errTxFinished = errors.New("client: transaction finished")

// finish returns the connection to the pool (a broken one is discarded
// there).
func (tx *Tx) finish() {
	tx.done = true
	tx.c.put(tx.cn)
}

// Batch returns the transaction's operation queue. It belongs to the
// transaction and is reused from frame to frame; the Tx's own record methods
// go through it too, each sending whatever is queued plus its one operation.
func (tx *Tx) Batch() *Batch { return &tx.b }

// Batch queues a transaction's operations and sends them as one frame. The
// queueing methods return the operation's index, which reads its result
// after Do. Results alias the response buffer the Batch owns: they are valid
// until the next Do.
type Batch struct {
	tx *Tx

	begin  bool  // the transaction's BEGIN heads the frame being built
	commit bool  // COMMIT ends it
	n      int   // operations queued, the BEGIN included
	mark   int   // the open item, between op and end
	err    error // misuse while queueing; Do reports it and rolls back

	// The last Do: lead is 1 when the BEGIN headed it (result indexes skip
	// it), ran counts the operations that succeeded, the BEGIN excluded.
	lead int
	ran  int
	rbuf []byte
	res  []batchResult
}

type batchResult struct {
	status byte
	body   []byte
}

// reset empties the queue; the last Do's results stay readable.
func (b *Batch) reset() {
	b.commit, b.n, b.err = false, 0, nil
	b.tx.cn.req.Reset().BeginBatch()
}

// op opens the next operation and returns the builder its request body goes
// to; end closes it.
func (b *Batch) op(verb byte) *wire.Builder {
	switch {
	case b.tx.done:
		return new(wire.Builder) // Do will refuse; keep off a connection that is no longer ours
	case b.commit:
		b.err = errors.New("client: operation queued after COMMIT")
	case b.n == 1<<16-1:
		b.err = errors.New("client: batch holds 65535 operations")
	}
	req := &b.tx.cn.req
	b.mark = req.BeginItem(verb)
	return req
}

func (b *Batch) end() int {
	if b.tx.done {
		return -1
	}
	b.tx.cn.req.EndItem(b.mark)
	b.n++
	if b.begin {
		return b.n - 2
	}
	return b.n - 1
}

// Get queues a record read; Image reads its result.
func (b *Batch) Get(tid ts.TableID, rid ts.RID) int {
	b.op(wire.OpGet).U32(uint32(tid)).U64(uint64(rid))
	return b.end()
}

// Insert queues a record insert; RID reads its result.
func (b *Batch) Insert(tid ts.TableID, img []byte) int {
	b.op(wire.OpInsert).U32(uint32(tid)).Bytes(img)
	return b.end()
}

// InsertAt is Insert with a shard-placement hint — the sharded server places
// the record on hint's shard; a single-node server ignores the hint.
func (b *Batch) InsertAt(tid ts.TableID, img []byte, hint int) int {
	b.op(wire.OpInsertAt).U32(uint32(tid)).U32(uint32(hint)).Bytes(img)
	return b.end()
}

// Update queues the installation of a new image.
func (b *Batch) Update(tid ts.TableID, rid ts.RID, img []byte) int {
	b.op(wire.OpUpdate).U32(uint32(tid)).U64(uint64(rid)).Bytes(img)
	return b.end()
}

// Delete queues a record removal.
func (b *Batch) Delete(tid ts.TableID, rid ts.RID) int {
	b.op(wire.OpDelete).U32(uint32(tid)).U64(uint64(rid))
	return b.end()
}

// Commit queues the COMMIT. It must be the last operation of the frame: the
// server runs it only if everything before it succeeded.
func (b *Batch) Commit() {
	b.op(wire.OpCommit)
	b.end()
	b.commit = true
}

// Do sends the queued operations in one round trip and returns the first
// failed operation's error; Ran then tells which it was. See Tx for what a
// failure does to the transaction.
func (b *Batch) Do() error {
	tx := b.tx
	if tx.done {
		return errTxFinished
	}
	if err := b.err; err != nil {
		tx.Abort() // a frame the caller mis-built is not sent in part
		return err
	}
	if b.n == 0 {
		b.ran = 0
		return nil
	}
	cn, n, commit := tx.cn, b.n, b.commit
	b.lead = 0
	if b.begin {
		b.lead = 1
	}
	cn.req.EndBatch(0, n)
	status, resp, rbuf, err := cn.exchange(wire.OpBatch, cn.req.Take(), b.rbuf)
	b.rbuf = rbuf
	b.begin = false
	b.reset()
	b.res, b.ran = b.res[:0], 0
	if err == nil && status == wire.StOK {
		err = b.index(resp, n)
	}
	if err != nil {
		// Transport failure, or a response that is not an answer to the
		// frame: the transaction's fate is the connection's.
		cn.broken = true
		tx.finish()
		if commit {
			return fmt.Errorf("%w: %v", core.ErrCommitAmbiguous, err)
		}
		return fmt.Errorf("%w: %v", core.ErrTxnBroken, err)
	}
	if status == wire.StErr {
		// The frame was refused whole; nothing ran.
		err = decodeError(resp, cn)
		if b.lead == 1 {
			tx.finish()
		}
		return err
	}
	m := len(b.res)
	if last := b.res[m-1]; last.status == wire.StErr {
		b.ran = max(m-1-b.lead, 0)
		err = decodeError(last.body, cn)
		if m == b.lead || (commit && m == n) {
			tx.finish() // the BEGIN failed, or the COMMIT did
		}
		return err
	}
	b.ran = n - b.lead
	if commit {
		r := wire.NewParser(b.res[n-1].body)
		tx.commitLSN = r.U64()
		tx.finish()
		return r.Err()
	}
	return nil
}

// index splits a BATCH response into b.res and checks it answers a frame of
// n operations: every operation, or a prefix ending in the failure.
func (b *Batch) index(resp []byte, n int) error {
	items, err := wire.ReadBatch(resp)
	if err != nil {
		return err
	}
	if m := items.Len(); m == 0 || m > n {
		return fmt.Errorf("client: %d results for a batch of %d", m, n)
	}
	for items.Len() > 0 {
		status, body := items.Next()
		b.res = append(b.res, batchResult{status, body})
	}
	if m := len(b.res); m < n && b.res[m-1].status != wire.StErr {
		return fmt.Errorf("client: batch of %d stopped after %d without a failure", n, m)
	}
	return nil
}

// Ran reports how many operations of the last Do succeeded — after a
// failure, the index of the operation that failed.
func (b *Batch) Ran() int { return b.ran }

// result returns operation i's response body from the last Do, nil unless
// the operation ran and succeeded.
func (b *Batch) result(i int) []byte {
	if i < 0 || i >= b.ran {
		return nil
	}
	return b.res[i+b.lead].body
}

// Image returns the record image operation i (a Get) read. It aliases the
// Batch's response buffer: valid until the next Do.
func (b *Batch) Image(i int) []byte { return wire.NewParser(b.result(i)).View() }

// RID returns the record ID operation i (an Insert or InsertAt) created.
func (b *Batch) RID(i int) ts.RID { return ts.RID(wire.NewParser(b.result(i)).U64()) }

// Exec runs one SQL statement inside the transaction.
func (tx *Tx) Exec(sqlText string) (*Result, error) {
	tx.b.op(wire.OpExec).Str(sqlText).U64(0)
	i := tx.b.end()
	if err := tx.b.Do(); err != nil {
		return nil, err
	}
	return decodeResult(wire.NewParser(tx.b.result(i)))
}

// Get reads one record image.
func (tx *Tx) Get(tid ts.TableID, rid ts.RID) ([]byte, error) {
	i := tx.b.Get(tid, rid)
	if err := tx.b.Do(); err != nil {
		return nil, err
	}
	return append([]byte(nil), tx.b.Image(i)...), nil
}

// Insert creates a record and returns its RID.
func (tx *Tx) Insert(tid ts.TableID, img []byte) (ts.RID, error) {
	i := tx.b.Insert(tid, img)
	if err := tx.b.Do(); err != nil {
		return 0, err
	}
	return tx.b.RID(i), nil
}

// InsertAt is Insert with a shard-placement hint — the sharded server places
// the record on hint's shard; a single-node server ignores the hint.
func (tx *Tx) InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	i := tx.b.InsertAt(tid, img, hint)
	if err := tx.b.Do(); err != nil {
		return 0, err
	}
	return tx.b.RID(i), nil
}

// Update installs a new image.
func (tx *Tx) Update(tid ts.TableID, rid ts.RID, img []byte) error {
	tx.b.Update(tid, rid, img)
	return tx.b.Do()
}

// Delete removes a record.
func (tx *Tx) Delete(tid ts.TableID, rid ts.RID) error {
	tx.b.Delete(tid, rid)
	return tx.b.Do()
}

// Scan visits every visible record of the table in RID order. The whole
// result crosses the wire in one response.
func (tx *Tx) Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error {
	tx.b.op(wire.OpScan).U32(uint32(tid))
	i := tx.b.end()
	if err := tx.b.Do(); err != nil {
		return err
	}
	r := wire.NewParser(tx.b.result(i))
	n := int(r.U32())
	for i := 0; i < n; i++ {
		rid := ts.RID(r.U64())
		img := r.Bytes()
		if err := r.Err(); err != nil {
			return err
		}
		if !fn(rid, img) {
			break
		}
	}
	return r.Err()
}

// Commit finishes the transaction and returns the connection to the pool. A
// transport failure here is the one genuinely ambiguous outcome in the
// protocol — the commit may or may not have landed — and surfaces as the
// non-transient core.ErrCommitAmbiguous; callers must reconcile before
// retrying.
func (tx *Tx) Commit() error {
	tx.b.Commit()
	return tx.b.Do()
}

// CommitLSN returns the session consistency token from a successful Commit:
// the WAL stream head covering the commit group the transaction rode in. A
// read gated on this LSN observes the transaction's writes. Zero before
// Commit, after a failed Commit, and from token-less servers.
func (tx *Tx) CommitLSN() uint64 { return tx.commitLSN }

// Abort rolls the transaction back and returns the connection to the pool.
// Safe to call after Commit (no-op), so `defer tx.Abort()` works. A
// transaction whose BEGIN is still queued has nothing to roll back and sends
// nothing.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	if !tx.b.begin {
		tx.b.reset()
		tx.b.op(wire.OpRollback)
		tx.b.end()
		_ = tx.b.Do() // the server drops the transaction with the connection if this fails
	}
	if !tx.done {
		tx.finish()
	}
}

// Cursor is a remote SQL query cursor bound to one pooled connection.
type Cursor struct {
	c         *Client
	cn        *Conn
	id        uint32
	snapTS    ts.CID
	cols      []string
	exhausted bool
	closed    bool
}

// Columns returns the output column names.
func (cu *Cursor) Columns() []string { return cu.cols }

// SnapshotTS returns the server-side cursor's pinned snapshot timestamp.
func (cu *Cursor) SnapshotTS() ts.CID { return cu.snapTS }

// Exhausted reports whether the server-side scan has passed the last row.
func (cu *Cursor) Exhausted() bool { return cu.exhausted || cu.closed }

// Fetch returns up to n rows and the server-side fetch statistics. A
// transport failure surfaces core.ErrTxnBroken (transient): the server-side
// cursor and its pinned snapshot died with the connection, so re-running the
// query from scratch is safe — nothing of the old scan survives.
func (cu *Cursor) Fetch(n int) ([][]wire.Datum, core.FetchStats, error) {
	if cu.closed {
		return nil, core.FetchStats{}, core.ErrCursorClosed
	}
	r, err := cu.cn.roundTripB(wire.OpQFetch, wire.GetBuilder().U32(cu.id).U32(uint32(n)))
	if err != nil {
		if isTransportErr(err) {
			cu.closed = true
			cu.c.put(cu.cn)
			err = fmt.Errorf("%w: %v", core.ErrTxnBroken, err)
		}
		return nil, core.FetchStats{}, err
	}
	cu.exhausted = r.Bool()
	st := core.FetchStats{Traversed: r.I64(), Duration: time.Duration(r.U64())}
	rows := wire.GetRows(r)
	st.Rows = len(rows)
	return rows, st, r.Err()
}

// Close releases the server-side cursor (and its pinned snapshot) and
// returns the connection to the pool. Idempotent. On a broken connection the
// round trip is skipped — the server released the cursor when the connection
// died.
func (cu *Cursor) Close() error {
	if cu.closed {
		return nil
	}
	cu.closed = true
	var err error
	if !cu.cn.broken {
		_, err = cu.cn.roundTripB(wire.OpQClose, wire.GetBuilder().U32(cu.id))
	}
	cu.c.put(cu.cn)
	return err
}

// Conn is one handshaked protocol connection. Calls on a Conn are not
// concurrency-safe; the pool hands each Conn to one owner at a time.
type Conn struct {
	nc      net.Conn
	br      *bufio.Reader
	timeout time.Duration
	broken  bool
	// req is the BATCH request body the transaction pinning the connection
	// is building; it is dead once written, so it outlives the transaction.
	req wire.Builder
}

// exchange writes one request frame and reads its response into scratch,
// as wire.ReadFrameInto does: the response aliases the returned buffer,
// which the caller keeps for its next exchange or drops. Transport failures
// poison the connection.
func (cn *Conn) exchange(op byte, body, scratch []byte) (status byte, resp, scratch2 []byte, err error) {
	if cn.broken {
		return 0, nil, scratch, fmt.Errorf("client: connection is broken")
	}
	deadline := time.Now().Add(cn.timeout)
	_ = cn.nc.SetWriteDeadline(deadline)
	if _, err := wire.WriteFrame(cn.nc, op, body); err != nil {
		cn.broken = true
		return 0, nil, scratch, err
	}
	_ = cn.nc.SetReadDeadline(deadline)
	status, resp, scratch, err = wire.ReadFrameInto(cn.br, scratch)
	if err != nil {
		cn.broken = true
	}
	return status, resp, scratch, err
}

// decodeError rehydrates a StErr body into *wire.Error, so sentinel matching
// (and core.IsTransient) works on the caller's side; an undecodable one
// poisons the connection.
func decodeError(body []byte, cn *Conn) error {
	r := wire.NewParser(body)
	code, msg := r.U16(), r.Str()
	if err := r.Err(); err != nil {
		cn.broken = true
		return err
	}
	return &wire.Error{Code: code, Msg: msg}
}

// roundTrip is exchange for everything that is not a transaction: the
// response body is freshly allocated and a StErr response comes back as its
// error.
func (cn *Conn) roundTrip(op byte, body []byte) (*wire.Parser, error) {
	status, resp, _, err := cn.exchange(op, body, nil)
	if err != nil {
		return nil, err
	}
	if status == wire.StErr {
		return nil, decodeError(resp, cn)
	}
	return wire.NewParser(resp), nil
}

// roundTripB is roundTrip with a pooled request builder, released after the
// write (WriteFrame copies the body out before sending).
func (cn *Conn) roundTripB(op byte, b *wire.Builder) (*wire.Parser, error) {
	r, err := cn.roundTrip(op, b.Take())
	wire.PutBuilder(b)
	return r, err
}

// IsTransient reports whether err is worth retrying — the engine's transient
// set, which wire errors unwrap into.
func IsTransient(err error) bool { return core.IsTransient(err) }
