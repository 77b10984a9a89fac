// Package client is the remote counterpart of internal/server: a pooled,
// stdlib-only client for the wire protocol. A Client owns up to MaxConns
// TCP connections, reused across calls; transactions and query cursors pin
// one connection (they are per-session state on the server) until
// Commit/Abort/Close returns it to the pool.
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
	// HelloMinLSN is the consistency token carried in every HELLO (zero:
	// none): a replica that has not applied up to this LSN refuses the
	// handshake (waits, then bounces with core.ErrReplicaBehind), so a
	// session is never established against a server that cannot satisfy it.
	HelloMinLSN uint64
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
	body := (&wire.Builder{}).Hello(c.cfg.Token, c.cfg.HelloMinLSN)
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

// CreateTable registers a record-level engine table (not a SQL table).
func (c *Client) CreateTable(name string) (ts.TableID, error) {
	r, err := c.doB(wire.OpCreateTable, wire.GetBuilder().Str(name))
	if err != nil {
		return 0, err
	}
	tid := ts.TableID(r.U32())
	return tid, r.Err()
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
// Commit/Abort. transSI selects transaction-level snapshot isolation.
func (c *Client) Begin(transSI bool) (*Tx, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	if _, err := cn.roundTripB(wire.OpBegin, wire.GetBuilder().Bool(transSI)); err != nil {
		c.put(cn)
		// A broken BEGIN started nothing: safe to retry as a fresh txn.
		if isTransportErr(err) {
			err = fmt.Errorf("%w: %v", core.ErrTxnBroken, err)
		}
		return nil, err
	}
	return &Tx{c: c, cn: cn}, nil
}

// BeginShard starts a remote transaction pinned to one shard — the
// single-shard fast path on a sharded server, bypassing the cross-shard
// router. Operations referencing records on other shards fail.
func (c *Client) BeginShard(shard int, transSI bool) (*Tx, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	if _, err := cn.roundTripB(wire.OpBeginShard, wire.GetBuilder().U32(uint32(shard)).Bool(transSI)); err != nil {
		c.put(cn)
		if isTransportErr(err) {
			err = fmt.Errorf("%w: %v", core.ErrTxnBroken, err)
		}
		return nil, err
	}
	return &Tx{c: c, cn: cn}, nil
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
// operations mirror core.Tx, so code written against that shape (the TPC-C
// driver) runs remotely unchanged.
//
// Failure classification: a transport failure on any operation before
// COMMIT surfaces core.ErrTxnBroken — transient, because the server aborts
// the session's transaction the moment its connection dies, so nothing of
// the attempt survives and core.Retry can safely re-run the whole
// transaction from scratch. A transport failure while COMMIT itself is in
// flight surfaces core.ErrCommitAmbiguous — NOT transient, because the
// commit may have become durable before the connection died, and a blind
// re-run could apply the transaction twice.
type Tx struct {
	c         *Client
	cn        *Conn
	done      bool
	commitLSN uint64
}

func (tx *Tx) round(op byte, body []byte) (*wire.Parser, error) {
	if tx.done {
		return nil, fmt.Errorf("client: transaction finished")
	}
	r, err := tx.cn.roundTrip(op, body)
	if isTransportErr(err) {
		// The connection (and with it the server-side transaction) is gone:
		// finish the Tx now so the poisoned conn returns to the pool for
		// discarding instead of waiting for a deferred Abort.
		tx.done = true
		tx.c.put(tx.cn)
		return nil, fmt.Errorf("%w: %v", core.ErrTxnBroken, err)
	}
	return r, err
}

// roundB is round with a pooled request builder, released after the write.
func (tx *Tx) roundB(op byte, b *wire.Builder) (*wire.Parser, error) {
	r, err := tx.round(op, b.Take())
	wire.PutBuilder(b)
	return r, err
}

// Exec runs one SQL statement inside the transaction.
func (tx *Tx) Exec(sqlText string) (*Result, error) {
	r, err := tx.roundB(wire.OpExec, wire.GetBuilder().Str(sqlText).U64(0))
	if err != nil {
		return nil, err
	}
	return decodeResult(r)
}

// Get reads one record image.
func (tx *Tx) Get(tid ts.TableID, rid ts.RID) ([]byte, error) {
	r, err := tx.roundB(wire.OpGet, wire.GetBuilder().U32(uint32(tid)).U64(uint64(rid)))
	if err != nil {
		return nil, err
	}
	img := r.Bytes()
	return img, r.Err()
}

// Insert creates a record and returns its RID.
func (tx *Tx) Insert(tid ts.TableID, img []byte) (ts.RID, error) {
	r, err := tx.roundB(wire.OpInsert, wire.GetBuilder().U32(uint32(tid)).Bytes(img))
	if err != nil {
		return 0, err
	}
	rid := ts.RID(r.U64())
	return rid, r.Err()
}

// InsertAt is Insert with a shard-placement hint — the sharded server places
// the record on hint's shard; a single-node server ignores the hint.
func (tx *Tx) InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	r, err := tx.roundB(wire.OpInsertAt, wire.GetBuilder().U32(uint32(tid)).U32(uint32(hint)).Bytes(img))
	if err != nil {
		return 0, err
	}
	rid := ts.RID(r.U64())
	return rid, r.Err()
}

// Update installs a new image.
func (tx *Tx) Update(tid ts.TableID, rid ts.RID, img []byte) error {
	_, err := tx.roundB(wire.OpUpdate, wire.GetBuilder().U32(uint32(tid)).U64(uint64(rid)).Bytes(img))
	return err
}

// Delete removes a record.
func (tx *Tx) Delete(tid ts.TableID, rid ts.RID) error {
	_, err := tx.roundB(wire.OpDelete, wire.GetBuilder().U32(uint32(tid)).U64(uint64(rid)))
	return err
}

// Scan visits every visible record of the table in RID order. The whole
// result crosses the wire in one response.
func (tx *Tx) Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error {
	r, err := tx.roundB(wire.OpScan, wire.GetBuilder().U32(uint32(tid)))
	if err != nil {
		return err
	}
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
	if tx.done {
		return fmt.Errorf("client: transaction finished")
	}
	r, err := tx.cn.roundTrip(wire.OpCommit, nil)
	tx.done = true
	tx.c.put(tx.cn)
	if isTransportErr(err) {
		return fmt.Errorf("%w: %v", core.ErrCommitAmbiguous, err)
	}
	if err != nil {
		return err
	}
	tx.commitLSN = r.U64()
	return r.Err()
}

// CommitLSN returns the session consistency token from a successful Commit:
// the WAL stream head covering the commit group the transaction rode in. A
// read gated on this LSN observes the transaction's writes. Zero before
// Commit, after a failed Commit, and from token-less servers.
func (tx *Tx) CommitLSN() uint64 { return tx.commitLSN }

// Abort rolls the transaction back and returns the connection to the pool.
// Safe to call after Commit (no-op), so `defer tx.Abort()` works.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	_, _ = tx.cn.roundTrip(wire.OpRollback, nil)
	tx.done = true
	tx.c.put(tx.cn)
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
}

// roundTrip writes one request frame and reads its response. Transport
// failures poison the connection; StErr responses decode into *wire.Error
// so sentinel matching (and core.IsTransient) works on the caller's side.
func (cn *Conn) roundTrip(op byte, body []byte) (*wire.Parser, error) {
	if cn.broken {
		return nil, fmt.Errorf("client: connection is broken")
	}
	deadline := time.Now().Add(cn.timeout)
	_ = cn.nc.SetWriteDeadline(deadline)
	if _, err := wire.WriteFrame(cn.nc, op, body); err != nil {
		cn.broken = true
		return nil, err
	}
	_ = cn.nc.SetReadDeadline(deadline)
	status, resp, err := wire.ReadFrame(cn.br)
	if err != nil {
		cn.broken = true
		return nil, err
	}
	if status == wire.StErr {
		r := wire.NewParser(resp)
		code, msg := r.U16(), r.Str()
		if err := r.Err(); err != nil {
			cn.broken = true
			return nil, err
		}
		return nil, &wire.Error{Code: code, Msg: msg}
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
