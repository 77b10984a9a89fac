// Package txn implements the unified transaction manager of §2: snapshot
// acquisition for statement-level and transaction-level snapshot isolation,
// write-write conflict detection, abort/undo, and the group commit protocol
// that assigns one CID per commit group through a single atomic store on the
// GroupCommitContext (§2.2), followed by backward CID propagation on each
// committing goroutine. It also takes the one view of the active snapshots
// (view.go) that the collectors, the monitors and the replica report all
// read.
//
// The two hot paths are built to scale across cores (DESIGN.md §15): snapshot
// acquisition publishes into the sts announcement array guarded only by a
// seqlock against GC scans, and commit groups are formed on the committing
// goroutines themselves: the first arrival leads, later arrivals piggyback.
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
// group's leader calls LogCommit with the group's CID and member contexts
// after choosing the CID but before publishing it, and only publishes on
// success. Leaders are serialized by the commit queue, so LogCommit is never
// called concurrently and sees CIDs in ascending order. A failure rolls the
// whole group back and surfaces the error to every member's Commit call.
// This is how the common persistency of §2.1 hooks into group commit.
type CommitLogger interface {
	LogCommit(cid ts.CID, members []*mvcc.TransContext) error
}

// maxGroup caps how many transactions share one commit group.
const maxGroup = 64

// Config tunes group commit.
type Config struct {
	// GroupCommitWindow is how long a group's leader waits for its batch to
	// fill before taking it. Zero (the default) batches only what is already
	// queued, which keeps single-threaded commits fast while still grouping
	// concurrent ones.
	GroupCommitWindow time.Duration
	// CommitLogger, when set, makes commit groups durable before they become
	// visible (write-ahead logging).
	CommitLogger CommitLogger
	// OnDurabilityFailure, when set, is called (once per failed group, by
	// that group's leader, so never concurrently) when a commit group could
	// not be made durable or could not be published after being logged, before
	// any member learns of the failure. The embedding engine uses it
	// to transition into fail-stop read-only mode: after a logging failure no
	// later commit may be acknowledged, or an acked-but-unlogged commit could
	// survive in memory and vanish on restart.
	OnDurabilityFailure func(error)
}

// Stats is a point-in-time counter snapshot of the manager.
type Stats struct {
	TxnsCommitted   int64
	TxnsAborted     int64
	GroupsCommitted int64
	// Propagated counts the versions a committed transaction stamped with
	// its CID (TransContext.Propagate): those no collector had reclaimed
	// between the group's publication and the stamp.
	Propagated int64
	LastCID    ts.CID
}

// Manager is the unified transaction manager.
type Manager struct {
	cfg   Config
	space *mvcc.Space
	reg   *sts.Registry

	commitTS  atomic.Uint64
	nextTxnID atomic.Uint64

	// scanMu + scanSeq form the seqlock around the one reader of the
	// registry, ViewInto: views serialize on scanMu and bracket their scan
	// with two scanSeq increments (odd while scanning); snapshot acquirers
	// never take the mutex — they publish into the registry lock-free and
	// retry if scanSeq moved, so a view holds every snapshot either among its
	// announcements or with a timestamp at or above its bound. See DESIGN.md
	// §15.
	scanMu  sync.Mutex
	scanSeq atomic.Uint64

	cq   commitQueue
	bell gcBell
	// closed is written under cq.mu (so submission and shutdown are ordered
	// by the queue's mutex) and read lock-free by PublishReplicated.
	closed atomic.Bool

	txnsCommitted   atomic.Int64
	txnsAborted     atomic.Int64
	groupsCommitted atomic.Int64
	propagated      atomic.Int64
}

// NewManager creates a manager over the given version space and snapshot
// registry. It owns no goroutine: commit groups form on the committers.
func NewManager(space *mvcc.Space, reg *sts.Registry, cfg Config) *Manager {
	return &Manager{
		cfg:   cfg,
		space: space,
		reg:   reg,
		bell:  gcBell{ring: make(chan struct{}, 1)},
	}
}

// Close shuts the manager down. It is the last request through the commit
// queue: commits accepted before it are published (or failed by their
// logger) before Close returns, and commits submitted after it fail with
// ErrClosed. Safe to call more than once.
func (m *Manager) Close() { m.submit(nil, true) }

// Space returns the version space the manager commits into.
func (m *Manager) Space() *mvcc.Space { return m.space }

// CurrentTS returns the latest assigned commit identifier — the value a new
// snapshot adopts as its timestamp.
func (m *Manager) CurrentTS() ts.CID { return ts.CID(m.commitTS.Load()) }

// beginScan/endScan bracket ViewInto's read of the snapshot registry. The
// mutex serializes views against each other; the sequence counter is what
// acquirers validate against (odd = scan in progress).
func (m *Manager) beginScan() {
	m.scanMu.Lock()
	m.scanSeq.Add(1)
}

func (m *Manager) endScan() {
	m.scanSeq.Add(1)
	m.scanMu.Unlock()
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

// commitReq is one request in the commit queue: a transaction's commit, or
// (tctx nil) a Barrier or Close, which only waits its turn.
type commitReq struct {
	tctx *mvcc.TransContext
	// next links the queue; cq.mu guards it until a leader takes the request
	// into its group, after which that leader owns it.
	next *commitReq
	// done wakes a follower: with its group's result, or with the leadership
	// of the group now at the head of the queue. A leader never uses its own.
	done chan commitResult
}

type commitResult struct {
	cid ts.CID
	err error
	// lead means no result yet: the receiver's request is at the head of the
	// queue and it must lead that group itself.
	lead bool
}

// commitReqPool recycles commit requests and their (cap-1) done channels, so
// the commit path allocates neither. A request goes back with its channel
// empty: it is woken at most once as follower and answered at most once.
var commitReqPool = sync.Pool{New: func() any {
	return &commitReq{done: make(chan commitResult, 1)}
}}

// commitQueue is the FIFO every Commit, Barrier and Close goes through, and
// the leadership token that serializes commit groups (DESIGN.md §15.3).
//
// Invariant, under mu: the queue is non-empty only while leading is set, and
// then either the request at the head belongs to the leader, who has not
// taken its group yet, or a leader is publishing a group it already took and
// will pass leadership to the head when it is done. So every accepted
// request either leads or is answered or handed leadership by a leader, and
// at most one goroutine is between taking a group and passing leadership on.
type commitQueue struct {
	mu         sync.Mutex
	head, tail *commitReq
	n          int
	leading    bool
}

// submit runs one request — tctx's commit, or with tctx nil a pure wait —
// through the commit queue on the calling goroutine and returns its result.
// closing marks the manager closed in the same critical section that
// enqueues the request, which makes it the queue's last.
func (m *Manager) submit(tctx *mvcc.TransContext, closing bool) commitResult {
	req := commitReqPool.Get().(*commitReq)
	req.tctx = tctx
	res := m.throughQueue(req, closing)
	req.tctx = nil
	commitReqPool.Put(req)
	return res
}

// throughQueue is submit with the request in hand. The first arrival at an
// idle queue leads: it takes what is queued (up to maxGroup, itself
// first), commits it as one group, answers the members and hands leadership
// to whoever queued meanwhile — a leader serves exactly one group. Later
// arrivals park on their done channel until a leader answers them or makes
// them the next leader. An uncontended commit therefore touches no channel
// and no other goroutine.
func (m *Manager) throughQueue(req *commitReq, closing bool) commitResult {
	q := &m.cq
	q.mu.Lock()
	if m.closed.Load() {
		q.mu.Unlock()
		return commitResult{err: ErrClosed}
	}
	if closing {
		m.closed.Store(true)
	}
	if q.tail == nil {
		q.head = req
	} else {
		q.tail.next = req
	}
	q.tail = req
	q.n++
	if q.leading {
		q.mu.Unlock()
		res := <-req.done
		if !res.lead {
			return res
		}
		q.mu.Lock()
	} else {
		q.leading = true
	}

	// Leading, with req at the head of the queue.
	if w := m.cfg.GroupCommitWindow; w > 0 && req.tctx != nil && q.n < maxGroup {
		q.mu.Unlock()
		time.Sleep(w)
		q.mu.Lock()
	}
	n, last := q.n, q.tail
	if n > maxGroup {
		n, last = maxGroup, req
		for i := 1; i < n; i++ {
			last = last.next
		}
	}
	q.head = last.next
	if q.head == nil {
		q.tail = nil
	}
	last.next = nil
	q.n -= n
	q.mu.Unlock()

	res := m.commitBatch(req, n)

	q.mu.Lock()
	next := q.head
	q.leading = next != nil
	q.mu.Unlock()
	if next != nil {
		next.done <- commitResult{lead: true}
	}
	return res
}

// commitBatch commits the n requests linked from lead as one group and
// returns lead's own result. Only a group's leader calls it, so calls never
// overlap: the CID read-then-store below, the CommitLogger, FPPublish and
// OnDurabilityFailure all rely on that.
func (m *Manager) commitBatch(lead *commitReq, n int) commitResult {
	// The member slice is retained by the group for its whole lifetime, so it
	// cannot come from a scratch buffer.
	var tcs []*mvcc.TransContext
	for r := lead; r != nil; r = r.next {
		if r.tctx == nil {
			continue
		}
		if tcs == nil {
			tcs = make([]*mvcc.TransContext, 0, n)
		}
		tcs = append(tcs, r.tctx)
	}
	if tcs == nil {
		// Only barriers: everything queued before them is already published.
		return answer(lead, commitResult{})
	}
	cid := ts.CID(m.commitTS.Load()) + 1
	// Write-ahead logging: the group must be durable before anything makes
	// it visible. The CID is chosen but not yet assigned, so concurrent
	// readers cannot observe the group while it is being logged.
	if logger := m.cfg.CommitLogger; logger != nil {
		if err := logger.LogCommit(cid, tcs); err != nil {
			return m.failBatch(lead, tcs, fmt.Errorf("txn: commit logging failed: %w", err))
		}
	}
	if err := fault.Hit(FPPublish); err != nil {
		// The group is in the log but will never be published. The CID must
		// not be reused (replay would then skip the next real group), so this
		// is unrecoverable without restarting through recovery: fail-stop.
		return m.failBatch(lead, tcs, fmt.Errorf("txn: publish failed after durable logging: %w", err))
	}
	// The members' tallies go on the version-space counters before the CID
	// makes their versions collectable, so no collector subtracts first.
	for _, tc := range tcs {
		m.space.Flush(tc)
	}
	gcc := mvcc.NewGroup(tcs)
	versions := gcc.Live()
	// Publish the CID on the group first: the single store below makes every
	// version of every member transaction resolvable. Only then advance the
	// global commit timestamp, so a snapshot that adopts the new timestamp
	// is guaranteed to see the whole group. The group is linked in between:
	// a collector that read the commit timestamp as its bound finds every
	// group at or below it in the list, which is what lets the incremental
	// collectors move their high-water marks up to that bound.
	gcc.AssignCID(cid)
	m.space.Groups.Append(gcc)
	m.commitTS.Store(uint64(cid))
	m.bell.published(versions)
	m.groupsCommitted.Add(1)
	m.txnsCommitted.Add(int64(len(tcs)))
	return answer(lead, commitResult{cid: cid})
}

// answer releases the followers of the group linked from lead and returns
// lead's own result: res for commits, an empty result for barriers, which
// only wait for the group to be settled either way.
func answer(lead *commitReq, res commitResult) commitResult {
	for r := lead.next; r != nil; {
		// The follower owns r again the moment it is answered.
		next := r.next
		r.next = nil
		if r.tctx == nil {
			r.done <- commitResult{}
		} else {
			r.done <- res
		}
		r = next
	}
	lead.next = nil
	if lead.tctx == nil {
		return commitResult{}
	}
	return res
}

// failBatch rolls back every member of a group whose logging or publication
// failed, notifies the durability-failure hook so the engine can fail-stop,
// and only then answers the members with err (each counts its own abort in
// Txn.Commit).
func (m *Manager) failBatch(lead *commitReq, tcs []*mvcc.TransContext, err error) commitResult {
	for _, tc := range tcs {
		m.rollback(tc)
	}
	if m.cfg.OnDurabilityFailure != nil {
		m.cfg.OnDurabilityFailure(err)
	}
	return answer(lead, commitResult{err: err})
}

// rollback unlinks a transaction's versions newest-first and flushes its
// tally, which they net against.
func (m *Manager) rollback(tc *mvcc.TransContext) {
	vs := tc.Versions()
	for i := len(vs) - 1; i >= 0; i-- {
		m.space.Rollback(vs[i].Load())
	}
	m.space.Flush(tc)
}

// Barrier blocks until every commit submitted before it has been published
// (or failed). It is an empty request through the commit queue: the queue is
// FIFO and groups are published one after another, so everything ahead of
// the barrier is in an earlier group or earlier in its own. Checkpointing
// fences on it after rotating the log so the snapshot it takes covers
// everything written to the closed segments.
func (m *Manager) Barrier() error {
	return m.submit(nil, false).err
}

// SetCommitTS installs the recovered commit timestamp. Must be called before
// any transaction runs.
func (m *Manager) SetCommitTS(c ts.CID) { m.commitTS.Store(uint64(c)) }

// PublishReplicated publishes one already-durable commit group at its
// original, primary-assigned CID — the replica apply path. It mirrors
// commitBatch's publication sequence (assign the CID on the group, link the
// group, then advance the commit timestamp) minus logging, batching
// and conflict handling: the primary already did all three, and the WAL
// stream delivers groups serially in CID order. Calls must be serial with
// strictly ascending CIDs; a CID at or below the current timestamp is a
// protocol error (the applier deduplicates before calling). Unlike
// Txn.Commit it does not run the group collection Start installs
// (collectAfterCommit): the applier is one goroutine the whole stream waits
// behind, so the replica's collector loop reclaims what it publishes.
func (m *Manager) PublishReplicated(cid ts.CID, tc *mvcc.TransContext) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if cur := ts.CID(m.commitTS.Load()); cid <= cur {
		return fmt.Errorf("txn: replicated CID %d not above current %d", cid, cur)
	}
	m.space.Flush(tc)
	gcc := mvcc.NewGroup([]*mvcc.TransContext{tc})
	versions := gcc.Live()
	gcc.AssignCID(cid)
	m.space.Groups.Append(gcc)
	m.commitTS.Store(uint64(cid))
	m.bell.published(versions)
	m.groupsCommitted.Add(1)
	m.txnsCommitted.Add(1)
	m.propagated.Add(int64(tc.Propagate()))
	return nil
}
