package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// SourceConfig tunes the primary side of replication.
type SourceConfig struct {
	// MaxSegmentLag bounds how many log segments a replica may trail the
	// primary's active segment before it is demoted (<=0 selects 8): an
	// unbounded laggard would pin segment retention forever.
	MaxSegmentLag int
	// StaleAfter demotes a replica that has not reported for this long
	// (<=0 selects 10s). It doubles as the stream's read deadline.
	StaleAfter time.Duration
	// HeartbeatEvery paces stream heartbeats and the lag/drain checks
	// (<=0 selects 500ms).
	HeartbeatEvery time.Duration
	// WriteTimeout bounds every stream write — records, heartbeats, end
	// messages, and refusal frames (<=0 selects 5s). A partitioned replica
	// stops draining its socket; once the kernel buffers fill, the next
	// write blocks until this deadline fires and the stream tears down (the
	// sweeper demotes the replica after StaleAfter). Without this bound a
	// partition could hold the stream open for as long as it lasts.
	WriteTimeout time.Duration
}

func (c *SourceConfig) fill() {
	if c.MaxSegmentLag <= 0 {
		c.MaxSegmentLag = 8
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
}

// replicaState is the primary's view of one replica. Guarded by Source.mu.
type replicaState struct {
	id        string
	connected bool
	demoted   bool
	applied   wal.LSN
	// floor is the lowest log segment this replica still needs: 0 during
	// bootstrap (everything), then the segment of its applied LSN, never
	// past its stream's cursor (see assess). It survives disconnects so a
	// briefly-absent replica can resume, and is dropped on demotion.
	floor      uint64
	hasFloor   bool
	lastReport time.Time
}

// Source is the primary-side replication service. It implements
// server.ReplHandler structurally; the server package never imports repl.
type Source struct {
	db  *core.DB
	log *wal.Log
	cfg SourceConfig

	mu       sync.Mutex
	replicas map[string]*replicaState
	closed   bool

	recordsSent atomic.Int64
	demotions   atomic.Int64

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewSource builds the replication source over a persistent primary and
// registers its segment-retention hook: from here on, checkpoints never
// prune a segment the slowest live replica still needs.
func NewSource(db *core.DB, cfg SourceConfig) (*Source, error) {
	cfg.fill()
	if db.WAL() == nil {
		return nil, errors.New("repl: source requires a persistent database")
	}
	s := &Source{
		db:        db,
		log:       db.WAL(),
		cfg:       cfg,
		replicas:  make(map[string]*replicaState),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	db.SetSegmentRetention(s.lowestNeeded)
	go s.sweeper()
	return s, nil
}

// Close stops the staleness sweeper and refuses new streams. Active streams
// end through server drain.
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopSweep)
	<-s.sweepDone
}

// lowestNeeded is the segment-retention hook: the minimum floor over every
// replica that holds one (demotion drops it). ok=false when no replica pins
// retention, letting checkpoints prune freely.
func (s *Source) lowestNeeded() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	low, ok := uint64(0), false
	for _, st := range s.replicas {
		if !st.hasFloor {
			continue
		}
		if !ok || st.floor < low {
			low, ok = st.floor, true
		}
	}
	return low, ok
}

// sweeper demotes replicas that disconnected and stayed silent past
// StaleAfter, releasing their hold on segment retention.
func (s *Source) sweeper() {
	defer close(s.sweepDone)
	period := s.cfg.StaleAfter / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.mu.Lock()
			for _, st := range s.replicas {
				if !st.connected && !st.demoted && time.Since(st.lastReport) > s.cfg.StaleAfter {
					s.demoteLocked(st)
				}
			}
			s.mu.Unlock()
		}
	}
}

// demoteLocked drops the one thing the replica holds over the primary, its
// segment floor, and marks it for re-bootstrap. FPFloorLeak skips the drop
// so tests can re-introduce the "dead peer pins the log forever" bug and
// prove the chaos harness detects it.
func (s *Source) demoteLocked(st *replicaState) {
	if fault.Hit(FPFloorLeak) == nil {
		st.hasFloor = false
	}
	st.demoted = true
	s.demotions.Add(1)
}

// admit registers the stream under Source.mu and sets the replica's initial
// segment floor before any checkpoint or segment work happens — closing the
// race where a concurrent checkpoint prunes a segment the stream is about
// to read.
func (s *Source) admit(req wire.ReplStreamRequest) (*replicaState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, wire.ErrDraining
	}
	st := s.replicas[req.ReplicaID]
	if st == nil {
		st = &replicaState{id: req.ReplicaID}
		s.replicas[req.ReplicaID] = st
	}
	if st.connected {
		return nil, fmt.Errorf("%w: replica %q is already streaming", wire.ErrBadRequest, req.ReplicaID)
	}
	if st.demoted && req.StartLSN != 0 {
		return nil, wire.ErrReplDemoted
	}
	st.demoted = false
	st.connected = true
	st.lastReport = time.Now()
	st.applied = wal.LSN(req.StartLSN)
	if req.StartLSN == 0 {
		st.floor, st.hasFloor = 0, true // bootstrap: retain everything
	} else {
		st.floor, st.hasFloor = wal.LSN(req.StartLSN).Segment(), true
	}
	return st, nil
}

// detach marks the stream gone. The floor and report time survive so a
// quick reconnect resumes cheaply; the sweeper demotes the replica if it
// stays away past StaleAfter.
func (s *Source) detach(st *replicaState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.connected = false
	st.lastReport = time.Now()
}

// refuse answers the OpReplStream request with an error frame (the stream
// never started, so the request/response protocol still applies).
func (s *Source) refuse(nc net.Conn, bw *bufio.Writer, err error) error {
	body := (&wire.Builder{}).U16(wire.ErrorCode(err)).Str(err.Error()).Take()
	_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, werr := wire.WriteFrame(bw, wire.StErr, body); werr == nil {
		_ = bw.Flush()
	}
	return err
}

// ServeStream drives one hijacked replication stream; it implements
// server.ReplHandler. The calling goroutine is the stream's only writer
// (records, heartbeats, end messages); a second goroutine reads the
// replica's reports.
func (s *Source) ServeStream(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, req wire.ReplStreamRequest, draining func() bool) error {
	if req.ReplicaID == "" {
		return s.refuse(nc, bw, fmt.Errorf("%w: empty replica id", wire.ErrBadRequest))
	}
	st, err := s.admit(req)
	if err != nil {
		return s.refuse(nc, bw, err)
	}
	defer s.detach(st)

	var ck []byte
	if req.StartLSN == 0 {
		// The floor registered by admit (0) keeps Checkpoint from pruning
		// anything while the bootstrap is in flight. The file is the message.
		path := wal.CheckpointPath(s.db.PersistDir())
		ck, err = os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			if err = s.db.Checkpoint(); err == nil {
				ck, err = os.ReadFile(path)
			}
		}
		if err != nil {
			return s.refuse(nc, bw, fmt.Errorf("repl: checkpoint for bootstrap: %w", err))
		}
	}

	// The stream is one cursor over the log, from StartLSN (0: the oldest
	// retained segment) to the head and on. Resume is only possible while
	// the starting segment is retained and the position is not past the head.
	catchUp := s.log.NextLSN()
	cur, err := s.log.OpenCursor(wal.LSN(req.StartLSN))
	if err != nil {
		s.mu.Lock()
		st.hasFloor = false // the floor admit set points at nothing
		s.mu.Unlock()
		if errors.Is(err, fs.ErrNotExist) || wal.LSN(req.StartLSN) > catchUp {
			err = wire.ErrReplTooOld
		}
		return s.refuse(nc, bw, err)
	}
	defer cur.Close()

	// Accept: the StOK body carries the stream head so the replica can see
	// its lag immediately. Everything below it is the initial catch-up, which
	// exempts the replica from the lag bound until applied (see assess).
	ack := (&wire.Builder{}).U64(uint64(catchUp)).Take()
	if _, err := wire.WriteFrame(bw, wire.StOK, ack); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	readerErr := make(chan error, 1)
	go s.readReports(nc, br, st, readerErr)

	if ck != nil {
		if err := s.send(nc, bw, wire.RmCheckpoint, ck); err != nil {
			return err
		}
	}

	// Ship what the cursor yields and, at the head, wait for the log to move.
	// Records the checkpoint already covers are skipped CID-wise by the
	// applier. The drain flag is checked per record as well as per tick: a
	// long catch-up throttled by a slow replica's TCP backpressure must end
	// promptly on server shutdown, not when a per-message write deadline
	// eventually fires. shipped is the position after the last record sent: a
	// replica whose applied LSN has reached it holds everything this stream
	// gave it.
	shipped := wal.LSN(req.StartLSN)
	hb := time.NewTicker(s.cfg.HeartbeatEvery)
	defer hb.Stop()
	for {
		if draining() {
			_ = s.send(nc, bw, wire.RmEnd, endBody(wire.EndDrain, "primary draining"))
			return nil
		}
		lsn, payload, wake, err := cur.Next()
		if err != nil {
			return err
		}
		if catchUp > shipped && (wake != nil || lsn >= catchUp) {
			// The cursor has passed the head seen at accept: the initial
			// catch-up ends after the last record shipped, not at a head that
			// record-free rotations may have moved on from it.
			catchUp = shipped
		}
		if wake == nil {
			if err := fault.Hit(FPPartialSegment); err != nil {
				return err
			}
			if err := s.sendRecord(nc, bw, lsn, payload); err != nil {
				return err
			}
			shipped = lsn + 1
			wake = ready // poll the reader and the ticker, do not park
		}
		select {
		case err := <-readerErr:
			return err
		case <-wake:
		case <-hb.C:
			if err := fault.Hit(FPStreamDrop); err != nil {
				nc.Close()
				return err
			}
			head := s.log.NextLSN()
			resume, demoted := s.assess(st, cur.LSN(), shipped, catchUp, head)
			if demoted {
				_ = s.send(nc, bw, wire.RmEnd, endBody(wire.EndDemoted, "exceeded segment lag bound"))
				return nil
			}
			body := (&wire.Builder{}).U64(uint64(head)).U64(uint64(resume)).Take()
			if err := s.send(nc, bw, wire.RmHeartbeat, body); err != nil {
				return err
			}
		}
	}
}

// ready is a closed channel: what a stream with more to ship waits on.
var ready = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// assess is the heartbeat tick's judgement of one stream, from the cursor's
// position pos, the shipped mark, the applied LSN last reported and the head.
//
// The floor is the segment of whichever is lower, applied or cursor: the
// replica resumes from its applied LSN, and nothing the cursor has yet to
// ship is ever prunable.
//
// A replica is caught up when the cursor stands at the head and everything
// shipped is applied; it then holds everything below head, and the heartbeat
// carries head as a resume point, advancing the replica's cursor across
// record-free rotations (idle periodic checkpoints) so that its next report
// moves the floor.
//
// Otherwise the lag bound applies: how many segments the floor trails the
// active one. A stream still working through its initial catch-up — applied
// below catchUp, the head at accept — is exempt: during a bootstrap the floor
// starts at 0 (and on a resume, at the reconnect segment), so on a mature
// primary the raw distance exceeds any bound before the replica has had a
// chance to apply a single record, and demoting it there would only send it
// back into another bootstrap, forever.
func (s *Source) assess(st *replicaState, pos, shipped, catchUp, head wal.LSN) (resume wal.LSN, demoted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.floor = min(st.applied.Segment(), pos.Segment())
	switch {
	case pos == head && st.applied >= shipped:
		return head, false
	case st.applied >= catchUp && head.Segment()-st.floor > uint64(s.cfg.MaxSegmentLag):
		s.demoteLocked(st)
		return 0, true
	}
	return 0, false
}

// readReports consumes the replica's report messages until the connection
// ends. A report carries the replica's applied LSN, which the next heartbeat
// tick derives the segment floor from. The replica's snapshots are not
// reported: they read the replica's own engine, whose collector they pin.
func (s *Source) readReports(nc net.Conn, br *bufio.Reader, st *replicaState, done chan<- error) {
	for {
		_ = nc.SetReadDeadline(time.Now().Add(s.cfg.StaleAfter))
		op, body, err := wire.ReadStreamMsg(br)
		if err != nil {
			done <- err
			return
		}
		if op != wire.RmReport {
			done <- fmt.Errorf("repl: unexpected stream message 0x%02x from replica %q", op, st.id)
			return
		}
		p := wire.NewParser(body)
		rep := wire.DecodeReplReport(p)
		if err := p.Err(); err != nil {
			done <- err
			return
		}
		s.mu.Lock()
		st.lastReport = time.Now()
		st.applied = wal.LSN(rep.AppliedLSN)
		s.mu.Unlock()
	}
}

// send writes one stream message under the configured write deadline —
// this is the partition trigger: once a non-draining peer fills the socket
// buffers, the deadline fires and the stream tears down.
func (s *Source) send(nc net.Conn, bw *bufio.Writer, op byte, body []byte) error {
	_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return wire.WriteStreamMsg(bw, op, body)
}

// sendRecord ships one WAL record: its LSN followed by the raw payload. The
// body is assembled in a pooled builder — this runs once per shipped record,
// the stream's hottest path.
func (s *Source) sendRecord(nc net.Conn, bw *bufio.Writer, lsn wal.LSN, payload []byte) error {
	b := wire.GetBuilder().U64(uint64(lsn)).Raw(payload)
	err := s.send(nc, bw, wire.RmRecord, b.Take())
	wire.PutBuilder(b)
	if err != nil {
		return err
	}
	s.recordsSent.Add(1)
	return nil
}

func endBody(code byte, detail string) []byte {
	return (&wire.Builder{}).U8(code).Str(detail).Take()
}

// PopulateStats splices the primary's replication view into a STATS
// payload (wired as the server's StatsHook).
func (s *Source) PopulateStats(out *wire.Stats) {
	out.ReplRole = "primary"
	out.ReplPrimaryLSN = uint64(s.log.NextLSN())
	out.ReplRecordsSent = s.recordsSent.Load()
	out.ReplDemotions = s.demotions.Load()
	active := s.log.NextLSN().Segment()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.replicas {
		rs := wire.ReplicaStat{
			ID:            st.id,
			Connected:     st.connected,
			Demoted:       st.demoted,
			AppliedLSN:    uint64(st.applied),
			LastReportAge: time.Since(st.lastReport),
		}
		if st.hasFloor {
			rs.FloorSegment = st.floor
			rs.SegmentLag = int64(active) - int64(st.floor)
		}
		out.Replicas = append(out.Replicas, rs)
	}
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].ID < out.Replicas[j].ID })
}
