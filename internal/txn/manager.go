// Package txn implements the unified transaction manager of §2: snapshot
// acquisition for statement-level and transaction-level snapshot isolation,
// write-write conflict detection, abort/undo, and the group commit protocol
// that assigns one CID per commit group through a single atomic store on the
// GroupCommitContext (§2.2), followed by asynchronous backward CID
// propagation. It also hosts the system monitor that tracks every active
// snapshot's age and table scope for the table garbage collector (§4.3).
//
// The two hot paths are built to scale across cores (DESIGN.md §15): snapshot
// acquisition publishes into the sts announcement array guarded only by a
// seqlock against GC scans, and commit submission goes through pooled
// requests and a sharded MPSC intake instead of one contended channel.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/fault"
	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// FPPublish fires after a commit group is durably logged but before its CID
// is published. Failing here must roll the group back AND fail-stop the
// engine: the group's record is already in the log, so reusing its CID for a
// later group would make replay drop that later group (the "CID <= recovered"
// skip during recovery).
var FPPublish = fault.Declare("txn/publish", "after durable logging, before the group CID is published")

// Isolation selects the snapshot isolation variant of §1.
type Isolation int

const (
	// StmtSI is statement-level snapshot isolation, HANA's default: every
	// statement reads at its own fresh snapshot.
	StmtSI Isolation = iota
	// TransSI is transaction-level snapshot isolation: one snapshot at
	// transaction begin covers every read in the transaction.
	TransSI
)

// String implements fmt.Stringer.
func (i Isolation) String() string {
	if i == TransSI {
		return "Trans-SI"
	}
	return "Stmt-SI"
}

// Errors returned by the transaction layer.
var (
	ErrWriteConflict = errors.New("txn: write-write conflict")
	ErrClosed        = errors.New("txn: manager closed")
	ErrNotActive     = errors.New("txn: transaction is not active")
)

// CommitLogger makes a commit group durable before it becomes visible: the
// committer calls LogCommit with the group's CID and member contexts after
// choosing the CID but before publishing it, and only publishes on success.
// A failure rolls the whole group back and surfaces the error to every
// member's Commit call. This is how the common persistency of §2.1 hooks
// into group commit.
type CommitLogger interface {
	LogCommit(cid ts.CID, members []*mvcc.TransContext) error
}

// Config tunes the group committer.
type Config struct {
	// GroupCommitMaxBatch caps how many transactions share one commit group.
	// Defaults to 64.
	GroupCommitMaxBatch int
	// GroupCommitWindow is how long the committer waits to fill a batch
	// after the first request. Zero (the default) batches only what is
	// already queued, which keeps single-threaded commits fast while still
	// grouping concurrent ones.
	GroupCommitWindow time.Duration
	// SynchronousPropagation makes backward CID propagation happen inside
	// the commit call instead of on the background propagator. Used by
	// deterministic tests.
	SynchronousPropagation bool
	// CommitLogger, when set, makes commit groups durable before they become
	// visible (write-ahead logging).
	CommitLogger CommitLogger
	// OnDurabilityFailure, when set, is called (once per incident, from the
	// committer goroutine) when a commit group could not be made durable or
	// could not be published after being logged. The embedding engine uses it
	// to transition into fail-stop read-only mode: after a logging failure no
	// later commit may be acknowledged, or an acked-but-unlogged commit could
	// survive in memory and vanish on restart.
	OnDurabilityFailure func(error)
}

func (c *Config) fill() {
	if c.GroupCommitMaxBatch <= 0 {
		c.GroupCommitMaxBatch = 64
	}
}

// Stats is a point-in-time counter snapshot of the manager.
type Stats struct {
	TxnsCommitted   int64
	TxnsAborted     int64
	GroupsCommitted int64
	Propagated      int64
	LastCID         ts.CID
}

// Manager is the unified transaction manager.
type Manager struct {
	cfg   Config
	space *mvcc.Space
	reg   *sts.Registry
	mon   Monitor

	commitTS  atomic.Uint64
	nextTxnID atomic.Uint64

	// scanMu + scanSeq form the seqlock that replaces the old global
	// snapshot mutex: GC-side scans (SnapshotSetAndBound and the horizon
	// reads) serialize on scanMu and bracket their work with two scanSeq
	// increments (odd while scanning); snapshot acquirers never take the
	// mutex — they publish into the registry lock-free and retry if scanSeq
	// moved, so a scan observes every snapshot either in the registry or
	// with a timestamp at or above the bound it read. See DESIGN.md §15.
	scanMu  sync.Mutex
	scanSeq atomic.Uint64

	intake commitIntake
	propCh chan *mvcc.GroupCommitContext
	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	// sendGate serializes commit submission against shutdown: senders hold
	// the read side while enqueueing, Close takes the write side before
	// signalling quit, so every request that entered the intake is seen by
	// the committer's final drain and answered — no sender can block
	// forever on its done channel.
	sendGate   sync.RWMutex
	sendClosed bool

	txnsCommitted   atomic.Int64
	txnsAborted     atomic.Int64
	groupsCommitted atomic.Int64
	propagated      atomic.Int64
}

// NewManager creates a manager over the given version space and snapshot
// registry, and starts the group committer and CID propagator.
func NewManager(space *mvcc.Space, reg *sts.Registry, cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:    cfg,
		space:  space,
		reg:    reg,
		mon:    Monitor{reg: reg},
		propCh: make(chan *mvcc.GroupCommitContext, 1024),
		quit:   make(chan struct{}),
	}
	m.intake.init()
	m.wg.Add(2)
	go m.committer()
	go m.propagator()
	return m
}

// Close stops the background goroutines. Commits submitted before Close
// still receive their result (or ErrClosed from the final drain); commits
// submitted after fail immediately with ErrClosed. Safe to call once.
func (m *Manager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	// Bar new senders first; in-flight enqueues finish under the read lock,
	// so by the time quit closes every accepted request is in the intake
	// and the committer's final drain answers it.
	m.sendGate.Lock()
	m.sendClosed = true
	m.sendGate.Unlock()
	close(m.quit)
	m.wg.Wait()
}

// submit enqueues a commit request unless the manager is closed.
func (m *Manager) submit(req *commitReq) error {
	m.sendGate.RLock()
	defer m.sendGate.RUnlock()
	if m.sendClosed {
		return ErrClosed
	}
	m.intake.put(req)
	return nil
}

// Space returns the version space the manager commits into.
func (m *Manager) Space() *mvcc.Space { return m.space }

// Registry returns the snapshot timestamp registry.
func (m *Manager) Registry() *sts.Registry { return m.reg }

// Monitor returns the active-snapshot monitor.
func (m *Manager) Monitor() *Monitor { return &m.mon }

// CurrentTS returns the latest assigned commit identifier — the value a new
// snapshot adopts as its timestamp.
func (m *Manager) CurrentTS() ts.CID { return ts.CID(m.commitTS.Load()) }

// beginScan/endScan bracket a GC-side read of the snapshot registry. The
// mutex serializes scanners against each other; the sequence counter is what
// acquirers validate against (odd = scan in progress).
func (m *Manager) beginScan() {
	m.scanMu.Lock()
	m.scanSeq.Add(1)
}

func (m *Manager) endScan() {
	m.scanSeq.Add(1)
	m.scanMu.Unlock()
}

// GlobalHorizon returns the timestamp below which whole versions are
// invisible to every active snapshot: the minimum over every snapshot
// announcement (§4.4), or CurrentTS()+1 when no snapshot is active.
func (m *Manager) GlobalHorizon() ts.CID {
	m.beginScan()
	defer m.endScan()
	if min, ok := m.reg.UnionMin(); ok {
		return min
	}
	return m.CurrentTS() + 1
}

// TableHorizon returns the reclamation horizon for one table: the minimum of
// the unscoped snapshots and those scoped to that table (§4.3 step 3), or
// CurrentTS()+1 when nothing constrains the table.
func (m *Manager) TableHorizon(tid ts.TableID) ts.CID {
	m.beginScan()
	defer m.endScan()
	if min, ok := m.reg.EffectiveMin(tid); ok {
		return min
	}
	return m.CurrentTS() + 1
}

// PartitionHorizon returns the reclamation horizon for versions inside one
// partition of a table, or CurrentTS()+1 when nothing constrains it.
func (m *Manager) PartitionHorizon(tid ts.TableID, p ts.PartitionID) ts.CID {
	m.beginScan()
	defer m.endScan()
	if min, ok := m.reg.EffectiveMinAt(tid, p); ok {
		return min
	}
	return m.CurrentTS() + 1
}

// GlobalTrackerHorizon returns the bound below which only table- or
// partition-scoped snapshots can still pin versions: the minimum over the
// unscoped snapshot announcements, or CurrentTS()+1 when there are none.
// The table collector uses it to size the gap table GC opened up.
func (m *Manager) GlobalTrackerHorizon() ts.CID {
	m.beginScan()
	defer m.endScan()
	if min, ok := m.reg.GlobalMin(); ok {
		return min
	}
	return m.CurrentTS() + 1
}

// ActiveTimestamps returns the ascending set of all active snapshot
// timestamps — the S sequence of the interval collector.
func (m *Manager) ActiveTimestamps() []ts.CID {
	m.beginScan()
	defer m.endScan()
	return m.reg.UnionSnapshot()
}

// SnapshotSetAndBound captures the active snapshot timestamp set together
// with the current commit timestamp. Snapshot acquisition validates against
// the scan's seqlock window, so every snapshot held across or registered
// after this call either appears in the returned set or has a timestamp >=
// the returned bound — the safety condition interval reclamation needs to
// collect versions above max(S) up to the bound.
func (m *Manager) SnapshotSetAndBound() ([]ts.CID, ts.CID) {
	m.beginScan()
	defer m.endScan()
	bound := m.CurrentTS()
	return m.reg.UnionSnapshot(), bound
}

// Stats returns current counters.
func (m *Manager) Stats() Stats {
	return Stats{
		TxnsCommitted:   m.txnsCommitted.Load(),
		TxnsAborted:     m.txnsAborted.Load(),
		GroupsCommitted: m.groupsCommitted.Load(),
		Propagated:      m.propagated.Load(),
		LastCID:         m.CurrentTS(),
	}
}

type commitReq struct {
	tctx *mvcc.TransContext
	done chan commitResult
	// stripe picks the intake queue this request enqueues to. It is assigned
	// round-robin when the request object is first created and then travels
	// with the object through the pool, so each P's pooled requests keep
	// hitting the same stripe — per-P striping without goroutine IDs.
	stripe uint32
}

type commitResult struct {
	cid ts.CID
	err error
}

var commitReqSeed atomic.Uint32

// commitReqPool recycles commit requests and their (cap-1) done channels, so
// the commit fast path allocates neither.
var commitReqPool = sync.Pool{New: func() any {
	return &commitReq{
		done:   make(chan commitResult, 1),
		stripe: commitReqSeed.Add(1) & intakeStripeMask,
	}
}}

func getCommitReq(tctx *mvcc.TransContext) *commitReq {
	r := commitReqPool.Get().(*commitReq)
	r.tctx = tctx
	return r
}

// putCommitReq returns a request whose result has been consumed. The done
// channel is empty again (commit answers are single-shot), so the object is
// immediately reusable.
func putCommitReq(r *commitReq) {
	r.tctx = nil
	commitReqPool.Put(r)
}

// committer is the single goroutine that forms commit groups: it sweeps the
// sharded intake into a batch, creates one GroupCommitContext per
// GroupCommitMaxBatch-sized chunk, assigns the CID with one atomic store,
// then advances the global commit timestamp and releases the waiters.
//
// Barrier requests need one extra sweep before they are acknowledged: a
// sweep visits stripes in a fixed order, so it can catch a barrier on an
// early stripe while missing a commit that was enqueued to an
// already-visited stripe strictly before the barrier was submitted. Every
// such commit is in its stripe before the catching sweep finishes, so the
// *next* sweep is guaranteed to include it — barriers caught by sweep k are
// therefore answered only after sweep k+1's batches have been published.
func (m *Manager) committer() {
	defer m.wg.Done()
	var (
		drained  []*commitReq
		real     []*commitReq
		barBufs  [2][]*commitReq // double-buffered: one side is the live carry
		barside  int
		carry    []*commitReq // barriers awaiting their fence sweep
		timer    *time.Timer
	)
	for {
		if len(carry) == 0 {
			select {
			case <-m.intake.notify:
			case <-m.quit:
				m.failPending(nil)
				return
			}
		} else {
			// A carry is pending: sweep immediately (its fence), without
			// waiting for a notification that may never come.
			select {
			case <-m.quit:
				m.failPending(carry)
				return
			default:
			}
		}
		drained = m.intake.drain(drained[:0])
		real = real[:0]
		barriers := barBufs[barside][:0]
		real, barriers = splitRequests(drained, real, barriers)

		// Wait up to the configured window for stragglers, reusing one timer
		// across batches.
		if m.cfg.GroupCommitWindow > 0 && len(real) > 0 && len(real) < m.cfg.GroupCommitMaxBatch {
			if timer == nil {
				timer = time.NewTimer(m.cfg.GroupCommitWindow)
			} else {
				timer.Reset(m.cfg.GroupCommitWindow)
			}
			window := true
			for window && len(real) < m.cfg.GroupCommitMaxBatch {
				select {
				case <-m.intake.notify:
					drained = m.intake.drain(drained[:0])
					real, barriers = splitRequests(drained, real, barriers)
				case <-timer.C:
					window = false
				case <-m.quit:
					window = false
				}
			}
			if window {
				// Left the loop with the timer still armed: disarm and drain
				// so the next Reset starts clean.
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			}
		}

		for start := 0; start < len(real); start += m.cfg.GroupCommitMaxBatch {
			end := start + m.cfg.GroupCommitMaxBatch
			if end > len(real) {
				end = len(real)
			}
			m.commitBatch(real[start:end])
		}
		// This sweep's publications are the fence the previous sweep's
		// barriers were waiting for.
		for _, b := range carry {
			b.done <- commitResult{}
		}
		barBufs[barside] = barriers
		carry = barriers
		barside ^= 1
	}
}

// splitRequests partitions a sweep into real commits and barriers, appending
// to the provided buffers.
func splitRequests(reqs, real, barriers []*commitReq) ([]*commitReq, []*commitReq) {
	for _, r := range reqs {
		if r.tctx == nil {
			barriers = append(barriers, r)
		} else {
			real = append(real, r)
		}
	}
	return real, barriers
}

func (m *Manager) commitBatch(real []*commitReq) {
	if len(real) == 0 {
		return
	}
	// The member slice is retained by the group for its whole lifetime, so it
	// cannot come from a scratch buffer.
	tcs := make([]*mvcc.TransContext, 0, len(real))
	for _, r := range real {
		tcs = append(tcs, r.tctx)
	}
	cid := ts.CID(m.commitTS.Load()) + 1
	// Write-ahead logging: the group must be durable before anything makes
	// it visible. The CID is chosen but not yet assigned, so concurrent
	// readers cannot observe the group while it is being logged.
	if logger := m.cfg.CommitLogger; logger != nil {
		if err := logger.LogCommit(cid, tcs); err != nil {
			m.failBatch(tcs, real, fmt.Errorf("txn: commit logging failed: %w", err))
			return
		}
	}
	if err := fault.Hit(FPPublish); err != nil {
		// The group is in the log but will never be published. The CID must
		// not be reused (replay would then skip the next real group), so this
		// is unrecoverable without restarting through recovery: fail-stop.
		m.failBatch(tcs, real, fmt.Errorf("txn: publish failed after durable logging: %w", err))
		return
	}
	gcc := mvcc.NewGroup(tcs)
	// Publish the CID on the group first: the single store below makes every
	// version of every member transaction resolvable. Only then advance the
	// global commit timestamp, so a snapshot that adopts the new timestamp
	// is guaranteed to see the whole group.
	gcc.AssignCID(cid)
	m.commitTS.Store(uint64(cid))
	m.space.Groups.Append(gcc)
	m.groupsCommitted.Add(1)
	m.txnsCommitted.Add(int64(len(real)))
	for _, r := range real {
		r.done <- commitResult{cid: cid}
	}
	if m.cfg.SynchronousPropagation {
		m.propagated.Add(int64(gcc.Propagate()))
		return
	}
	select {
	case m.propCh <- gcc:
	default:
		// Propagator backlogged; propagate inline rather than dropping.
		m.propagated.Add(int64(gcc.Propagate()))
	}
}

// failBatch rolls back every member of a batch whose logging or publication
// failed, answers all waiters with err, counts the aborts, and notifies the
// durability-failure hook so the engine can fail-stop.
func (m *Manager) failBatch(tcs []*mvcc.TransContext, real []*commitReq, err error) {
	m.rollbackBatch(tcs)
	m.txnsAborted.Add(int64(len(real)))
	for _, r := range real {
		r.done <- commitResult{err: err}
	}
	if m.cfg.OnDurabilityFailure != nil {
		m.cfg.OnDurabilityFailure(err)
	}
}

// rollbackBatch undoes every version of a batch whose logging failed.
func (m *Manager) rollbackBatch(tcs []*mvcc.TransContext) {
	for _, tc := range tcs {
		vs := tc.Versions()
		for i := len(vs) - 1; i >= 0; i-- {
			m.space.Rollback(vs[i])
		}
	}
}

// Barrier blocks until every commit submitted before it has been published
// (or failed). Checkpointing fences on it after rotating the log so the
// snapshot it takes covers everything written to the closed segments.
func (m *Manager) Barrier() error {
	req := getCommitReq(nil)
	if err := m.submit(req); err != nil {
		putCommitReq(req)
		return err
	}
	res := <-req.done
	putCommitReq(req)
	return res.err
}

// SetCommitTS installs the recovered commit timestamp. Must be called before
// any transaction runs.
func (m *Manager) SetCommitTS(c ts.CID) { m.commitTS.Store(uint64(c)) }

// PublishReplicated publishes one already-durable commit group at its
// original, primary-assigned CID — the replica apply path. It mirrors the
// group committer's publication sequence (assign the CID on the group, then
// advance the commit timestamp, then link the group) minus logging, batching
// and conflict handling: the primary already did all three, and the WAL
// stream delivers groups serially in CID order. Calls must be serial with
// strictly ascending CIDs; a CID at or below the current timestamp is a
// protocol error (the applier deduplicates before calling).
func (m *Manager) PublishReplicated(cid ts.CID, tc *mvcc.TransContext) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if cur := ts.CID(m.commitTS.Load()); cid <= cur {
		return fmt.Errorf("txn: replicated CID %d not above current %d", cid, cur)
	}
	gcc := mvcc.NewGroup([]*mvcc.TransContext{tc})
	gcc.AssignCID(cid)
	m.commitTS.Store(uint64(cid))
	m.space.Groups.Append(gcc)
	m.groupsCommitted.Add(1)
	m.txnsCommitted.Add(1)
	// Propagation is synchronous: the applier is one goroutine and the next
	// record may depend on the chain state this group produced.
	m.propagated.Add(int64(gcc.Propagate()))
	return nil
}

// failPending drains and fails requests still queued at shutdown, including
// barriers carried from the last sweep.
func (m *Manager) failPending(carry []*commitReq) {
	for _, r := range carry {
		r.done <- commitResult{err: ErrClosed}
	}
	for _, r := range m.intake.drain(nil) {
		r.done <- commitResult{err: ErrClosed}
	}
}

// propagator performs the asynchronous backward CID propagation of §2.2:
// writing the group CID into each member version so later visibility checks
// need no pointer chase.
func (m *Manager) propagator() {
	defer m.wg.Done()
	for {
		select {
		case g := <-m.propCh:
			m.propagated.Add(int64(g.Propagate()))
		case <-m.quit:
			for {
				select {
				case g := <-m.propCh:
					m.propagated.Add(int64(g.Propagate()))
				default:
					return
				}
			}
		}
	}
}
