package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// ReplicaConfig tunes the replica side.
type ReplicaConfig struct {
	// Upstream is the primary's service address.
	Upstream string
	// Token is the primary's HELLO token, if any.
	Token string
	// ReplicaID names this replica to the primary; it keys the primary's
	// floor state across reconnects, so it must be stable.
	ReplicaID string
	// ReportEvery paces applied-LSN reports (<=0 selects 200ms).
	ReportEvery time.Duration
	// DialTimeout bounds connect and handshake (<=0 selects 5s).
	DialTimeout time.Duration
	// StallTimeout is the longest silence tolerated from the primary —
	// heartbeats normally arrive every HeartbeatEvery — before the stream
	// is torn down and redialed (<=0 selects 10s).
	StallTimeout time.Duration
	// WriteTimeout bounds each report write (<=0 selects StallTimeout). A
	// partition toward the primary blocks the reporter once buffers fill;
	// this deadline tears the stream down so the replica redials instead of
	// silently ceasing to report while appearing alive locally.
	WriteTimeout time.Duration
	// ReconnectBase/ReconnectMax bound the redial backoff
	// (<=0 select 50ms / 2s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
}

func (c *ReplicaConfig) fill() {
	if c.ReplicaID == "" {
		c.ReplicaID = "replica"
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 200 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = c.StallTimeout
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 2 * time.Second
	}
}

// Replica streams the primary's WAL into a local read-only engine. It keeps
// no replication state on disk: the applied cursor lives in memory (in the
// primary's LSN space), and a restarted replica re-bootstraps from a fresh
// checkpoint — which is also the recovery path after demotion.
type Replica struct {
	db  *core.DB
	cfg ReplicaConfig

	// applied is the next LSN the applier expects (records below it are
	// duplicates). primaryLSN is the stream head from the last heartbeat.
	applied        atomic.Uint64
	primaryLSN     atomic.Uint64
	recordsApplied atomic.Int64
	reconnects     atomic.Int64

	mu      sync.Mutex
	conn    net.Conn
	stopped bool
	stop    chan struct{}
	// advanced, when non-nil, is held by parked WaitLSN callers; the next
	// advance closes it.
	advanced chan struct{}
}

// NewReplica builds a replica over an empty read-only engine.
func NewReplica(db *core.DB, cfg ReplicaConfig) (*Replica, error) {
	cfg.fill()
	if cfg.Upstream == "" {
		return nil, errors.New("repl: replica requires an upstream address")
	}
	if !db.ReadOnly() {
		return nil, errors.New("repl: replica engine must be opened read-only")
	}
	return &Replica{db: db, cfg: cfg, stop: make(chan struct{})}, nil
}

// Run streams until Stop, reconnecting with backoff across stream failures
// and primary restarts. It returns nil after Stop, or ErrBootstrapRequired
// when the primary demoted this replica or no longer retains its position —
// the caller must rebuild the engine and start a fresh Replica.
func (r *Replica) Run() error {
	delay := r.cfg.ReconnectBase
	for {
		if r.isStopped() {
			return nil
		}
		before := r.applied.Load()
		err := r.streamOnce()
		if r.isStopped() {
			return nil
		}
		if errors.Is(err, ErrBootstrapRequired) {
			return err
		}
		if r.applied.Load() > before {
			delay = r.cfg.ReconnectBase // the stream made progress
		}
		r.reconnects.Add(1)
		select {
		case <-r.stop:
			return nil
		case <-time.After(delay):
		}
		if delay *= 2; delay > r.cfg.ReconnectMax {
			delay = r.cfg.ReconnectMax
		}
	}
}

// Stop ends the replica: the active stream's socket is closed and Run
// returns. Safe to call more than once.
func (r *Replica) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	close(r.stop)
	if r.conn != nil {
		r.conn.Close()
	}
}

func (r *Replica) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// setConn tracks the live socket so Stop can cut a blocked read; it returns
// false when the replica is already stopped.
func (r *Replica) setConn(nc net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false
	}
	r.conn = nc
	return true
}

// AppliedLSN returns the next LSN the applier expects — equal to the
// primary's NextLSN when fully caught up.
func (r *Replica) AppliedLSN() wal.LSN { return wal.LSN(r.applied.Load()) }

// WaitLSN blocks until the applied cursor reaches target (the primary's
// NextLSN at some instant) or the timeout expires.
func (r *Replica) WaitLSN(target wal.LSN, timeout time.Duration) error {
	if r.AppliedLSN() >= target {
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Take the channel before looking at the cursor: an advance between
		// the two closes it.
		r.mu.Lock()
		if r.advanced == nil {
			r.advanced = make(chan struct{})
		}
		advanced := r.advanced
		r.mu.Unlock()
		if r.AppliedLSN() >= target {
			return nil
		}
		select {
		case <-advanced:
		case <-r.stop:
			return errors.New("repl: replica stopped")
		case <-timer.C:
			return fmt.Errorf("repl: applied %s did not reach %s within %v", r.AppliedLSN(), target, timeout)
		}
	}
}

// streamOnce runs one stream attempt: dial, HELLO, OpReplStream, then apply
// until the stream ends.
func (r *Replica) streamOnce() error {
	nc, err := net.DialTimeout("tcp", r.cfg.Upstream, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if !r.setConn(nc) {
		nc.Close()
		return nil
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 1<<16)
	bw := bufio.NewWriterSize(nc, 1<<16)

	_ = nc.SetDeadline(time.Now().Add(r.cfg.DialTimeout))
	hello := (&wire.Builder{}).Hello(r.cfg.Token, 0).Take()
	if err := request(br, bw, wire.OpHello, hello, func(*wire.Parser) error { return nil }); err != nil {
		return err
	}

	start := r.applied.Load()
	reqBody := &wire.Builder{}
	wire.ReplStreamRequest{ReplicaID: r.cfg.ReplicaID, StartLSN: start}.Encode(reqBody)
	err = request(br, bw, wire.OpReplStream, reqBody.Take(), func(p *wire.Parser) error {
		r.primaryLSN.Store(p.U64())
		return p.Err()
	})
	if err != nil {
		if errors.Is(err, wire.ErrReplDemoted) || errors.Is(err, wire.ErrReplTooOld) {
			return fmt.Errorf("%w: %v", ErrBootstrapRequired, err)
		}
		return err
	}
	_ = nc.SetDeadline(time.Time{})

	// The reporter is the stream's only writer from here on; closing the
	// socket (apply-loop exit, Stop) is what unblocks and ends it.
	repDone := make(chan struct{})
	go r.reporter(nc, bw, repDone)
	defer func() { nc.Close(); <-repDone }()

	expectCheckpoint := start == 0
	// One reused message buffer for the whole stream: every case below fully
	// decodes (the Rm* decoders copy out) before the next read overwrites it.
	var scratch []byte
	for {
		_ = nc.SetReadDeadline(time.Now().Add(r.cfg.StallTimeout))
		op, body, sc, err := wire.ReadStreamMsgInto(br, scratch)
		scratch = sc
		if err != nil {
			return err
		}
		switch op {
		case wire.RmCheckpoint:
			if !expectCheckpoint {
				return errors.New("repl: unexpected mid-stream checkpoint")
			}
			expectCheckpoint = false
			// The reader checks the CRC before anything is installed.
			ck, err := wal.NewCheckpointReader(bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("repl: bootstrap checkpoint: %w", err)
			}
			if err := r.db.ApplyCheckpoint(ck); err != nil {
				if !errors.Is(err, core.ErrNotEmpty) {
					return fmt.Errorf("repl: applying bootstrap checkpoint: %w", err)
				}
				// A previous attempt died after installing its checkpoint but
				// before any record advanced the cursor, so this retry asked
				// for a full bootstrap again. The duplicate is only safe to
				// skip when it is the *same* checkpoint — CID equal to the
				// engine's commit timestamp — because catch-up records then
				// CID-dedupe against the state already applied. A different
				// CID means the primary checkpointed since the first attempt
				// (for instance after this replica was demoted while away and
				// its segment floor dropped): the commits between the two
				// checkpoints may live only in pruned segments, so skipping
				// would silently diverge. Rebuild from an empty engine.
				if cur := r.db.Manager().CurrentTS(); ck.CID != cur {
					return fmt.Errorf("%w: bootstrap checkpoint CID %d does not match engine state %d",
						ErrBootstrapRequired, ck.CID, cur)
				}
			}
		case wire.RmRun:
			if err := r.applyRun(body); err != nil {
				return err
			}
		case wire.RmHeartbeat:
			p := wire.NewParser(body)
			head, resume := p.U64(), p.U64()
			if err := p.Err(); err != nil {
				return err
			}
			r.primaryLSN.Store(head)
			// resume is the primary's assertion that this replica already
			// holds everything below head; it moves the cursor across
			// record-free rotations so WaitLSN converges and a reconnect
			// resumes from the right segment on an idle stream.
			if resume != 0 {
				r.advance(resume)
			}
		case wire.RmEnd:
			p := wire.NewParser(body)
			code, detail := p.U8(), p.Str()
			switch code {
			case wire.EndDemoted:
				return fmt.Errorf("%w: primary: %s", ErrBootstrapRequired, detail)
			case wire.EndDrain:
				return fmt.Errorf("%w: %s", errPrimaryDraining, detail)
			default:
				return fmt.Errorf("repl: stream ended: %s", detail)
			}
		default:
			return fmt.Errorf("repl: unknown stream message 0x%02x", op)
		}
	}
}

// applyRun applies an RmRun record by record, then advances the applied LSN
// (waking WaitLSN callers) once. A frame that does not check refuses the rest
// with wal.ErrCorrupt; the stream resumes from it.
func (r *Replica) applyRun(body []byte) error {
	p := wire.NewParser(body)
	first := wal.LSN(p.U64())
	if err := p.Err(); err != nil {
		return err
	}
	next, err := wal.ReadRun(first, body[8:], func(_ wal.LSN, payload []byte) error {
		if err := fault.Hit(FPApplyStall); err != nil {
			return err
		}
		rec, err := wal.DecodePayload(payload)
		if err == nil {
			err = r.db.ApplyRecord(rec)
		}
		if err == nil {
			r.recordsApplied.Add(1)
		}
		return err
	})
	r.advance(uint64(next))
	return err
}

// advance moves the applied cursor monotonically and releases the WaitLSN
// callers parked on it.
func (r *Replica) advance(next uint64) {
	for {
		cur := r.applied.Load()
		if next <= cur {
			return
		}
		if r.applied.CompareAndSwap(cur, next) {
			break
		}
	}
	r.mu.Lock()
	if r.advanced != nil {
		close(r.advanced)
		r.advanced = nil
	}
	r.mu.Unlock()
}

// reporter periodically tells the primary where this replica stands: the
// applied cursor, from which the primary derives its segment floor. A failed
// send leaves the socket to the apply loop, which may yet read an RmEnd.
func (r *Replica) reporter(nc net.Conn, bw *bufio.Writer, done chan<- struct{}) {
	defer close(done)
	send := func() error {
		b := &wire.Builder{}
		wire.ReplReport{AppliedLSN: r.applied.Load()}.Encode(b)
		_ = nc.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
		return wire.WriteStreamMsg(bw, wire.RmReport, b.Take())
	}
	if send() != nil {
		return
	}
	t := time.NewTicker(r.cfg.ReportEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			nc.Close()
			return
		case <-t.C:
			if send() != nil {
				return
			}
		}
	}
}

// PopulateStats splices the replica's view into a STATS payload (wired as
// the replica server's StatsHook).
func (r *Replica) PopulateStats(out *wire.Stats) {
	out.ReplRole = "replica"
	out.ReplUpstream = r.cfg.Upstream
	out.ReplAppliedLSN = r.applied.Load()
	out.ReplPrimaryLSN = r.primaryLSN.Load()
	out.ReplRecordsApplied = r.recordsApplied.Load()
	out.ReplReconnects = r.reconnects.Load()
}

// request performs one request/response exchange during the handshake
// phase, decoding an error frame into its wire sentinel.
func request(br *bufio.Reader, bw *bufio.Writer, op byte, body []byte, onOK func(*wire.Parser) error) error {
	if _, err := wire.WriteFrame(bw, op, body); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	status, resp, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	if status == wire.StErr {
		p := wire.NewParser(resp)
		code, msg := p.U16(), p.Str()
		if err := p.Err(); err != nil {
			return err
		}
		return &wire.Error{Code: code, Msg: msg}
	}
	return onOK(wire.NewParser(resp))
}
