package txn

import (
	"sync/atomic"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// state of a transaction.
type txnState int32

const (
	stateActive txnState = iota
	stateCommitted
	stateAborted
)

// Txn is one transaction. Under Trans-SI it owns a snapshot from begin to
// end; under Stmt-SI it owns one statement snapshot that every statement
// re-arms (Statement), and scopes writes and commit/abort.
type Txn struct {
	m   *Manager
	id  uint64
	iso Isolation
	// snap is the transaction snapshot under Trans-SI and, once the first
	// statement ran, the statement snapshot under Stmt-SI.
	snap *Snapshot

	tctx  *mvcc.TransContext
	state atomic.Int32
}

// Begin starts a transaction. declared lists the tables a Trans-SI
// transaction promises to access (HANA's declared-table API, which makes the
// transaction's snapshot eligible for table GC); pass nil when unknown.
// Stmt-SI transactions take no snapshot here.
func (m *Manager) Begin(iso Isolation, declared []ts.TableID) *Txn {
	t := &Txn{m: m, id: m.nextTxnID.Add(1), iso: iso}
	if iso == TransSI {
		t.snap = m.newSnapshot(KindTransaction, m.declare(declared), time.Now())
	}
	return t
}

// Statement returns the snapshot a Stmt-SI statement on table tid reads at,
// announced at the current commit timestamp; the caller releases it when the
// statement ends. The first statement allocates the transaction's statement
// snapshot and reads the clock once; every later one re-arms it, which costs
// neither, so a statement's age is counted from its transaction's first. A
// statement that begins while that snapshot is still armed — one nested in
// another's callback — gets a fresh snapshot of its own.
func (t *Txn) Statement(tid ts.TableID) *Snapshot {
	sc := t.m.reg.TableScope(tid)
	switch s := t.snap; {
	case s == nil:
		t.snap = t.m.newSnapshot(KindStatement, sc, time.Now())
	case !s.Released():
		return t.m.newSnapshot(KindStatement, sc, s.started)
	default:
		s.arm(sc)
	}
	return t.snap
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Isolation returns the transaction's isolation variant.
func (t *Txn) Isolation() Isolation { return t.iso }

// Snapshot returns the transaction snapshot (Trans-SI), or nil under
// Stmt-SI.
func (t *Txn) Snapshot() *Snapshot {
	if t.iso == TransSI {
		return t.snap
	}
	return nil
}

// Active reports whether the transaction can still read and write.
func (t *Txn) Active() bool { return txnState(t.state.Load()) == stateActive }

// Context lazily creates the transaction's TransContext on first write
// ("when a transaction issues a write operation for the first time, it
// creates a TransContext object", §2.2).
func (t *Txn) Context() *mvcc.TransContext {
	if t.tctx == nil {
		t.tctx = mvcc.NewTransContext(t.id)
	}
	return t.tctx
}

// MaybeContext returns the TransContext if the transaction has written
// anything, without creating one. Readers use it for own-write visibility.
func (t *Txn) MaybeContext() *mvcc.TransContext { return t.tctx }

// WroteAnything reports whether the transaction created any versions.
func (t *Txn) WroteAnything() bool {
	return t.tctx != nil && t.tctx.VersionCount() > 0
}

// ConflictCheck returns the write-write conflict predicate the engine runs
// under the chain latch before linking a new version:
//
//   - an uncommitted head owned by another transaction always conflicts;
//   - under Trans-SI, a head committed after the transaction's snapshot
//     conflicts (first-committer-wins under snapshot isolation);
//   - under Stmt-SI, writes apply on top of the latest committed version.
func (t *Txn) ConflictCheck() func(head *mvcc.Version) error {
	return func(head *mvcc.Version) error {
		if head == nil {
			return nil
		}
		if !head.Committed() {
			if head.TransContext() == t.tctx && t.tctx != nil {
				return nil // our own earlier write
			}
			return ErrWriteConflict
		}
		if t.iso == TransSI && head.CID() > t.snap.TS() {
			return ErrWriteConflict
		}
		return nil
	}
}

// Commit finishes the transaction. Read-only transactions just release their
// snapshot; writers enter group commit and block until their group's CID is
// assigned. Returns the commit identifier (ts.Invalid for read-only).
func (t *Txn) Commit() (ts.CID, error) {
	if !t.state.CompareAndSwap(int32(stateActive), int32(stateCommitted)) {
		return ts.Invalid, ErrNotActive
	}
	if !t.WroteAnything() {
		// Nothing to roll back, but a write that lost its chain to another
		// writer may have tallied the chain it created.
		t.undo()
		t.releaseSnapshot()
		return ts.Invalid, nil
	}
	res := t.m.submit(t.tctx, false)
	if res.err != nil {
		// Refused (manager closed) or failed with its group: either way the
		// transaction ends aborted and is counted as such.
		t.state.Store(int32(stateAborted))
		t.undo()
		t.releaseSnapshot()
		t.m.txnsAborted.Add(1)
		return ts.Invalid, res.err
	}
	// Backward CID propagation (§2.2), off the leader's serial section: each
	// member stamps its own, cache-hot versions with the CID it was answered
	// with, so every version resolves without a pointer chase by the time
	// Commit returns.
	t.m.propagated.Add(int64(t.tctx.Propagate()))
	// The snapshot is released only after the commit is durable in the
	// version space, so under Trans-SI the tracker reflects the paper's
	// observation that the timestamp is reclaimed at transaction end.
	t.releaseSnapshot()
	t.m.collectAfterCommit()
	return res.cid, nil
}

// Abort rolls back every version the transaction created and releases its
// snapshot. Aborting a finished transaction is a no-op.
func (t *Txn) Abort() {
	if !t.state.CompareAndSwap(int32(stateActive), int32(stateAborted)) {
		return
	}
	t.undo()
	t.releaseSnapshot()
	t.m.txnsAborted.Add(1)
}

// undo rolls back whatever the transaction wrote and flushes its tally.
func (t *Txn) undo() {
	if t.tctx != nil {
		t.m.rollback(t.tctx)
	}
}

func (t *Txn) releaseSnapshot() {
	if t.snap != nil {
		t.snap.Release()
	}
}
