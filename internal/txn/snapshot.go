package txn

import (
	"runtime"
	"sync/atomic"
	"time"

	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// SnapshotKind distinguishes how a snapshot came to exist, which m_snapshots
// reports and the watchdog and the pressure ladder use when picking victims.
type SnapshotKind int

const (
	// KindStatement is a Stmt-SI statement snapshot.
	KindStatement SnapshotKind = iota
	// KindCursor is a statement snapshot kept open by a client-held cursor —
	// the paper's canonical long-lived garbage collection blocker.
	KindCursor
	// KindTransaction is a Trans-SI transaction snapshot.
	KindTransaction
)

// String implements fmt.Stringer.
func (k SnapshotKind) String() string {
	switch k {
	case KindCursor:
		return "cursor"
	case KindTransaction:
		return "transaction"
	default:
		return "statement"
	}
}

// Snapshot is one active read view. It pins its timestamp in the snapshot
// registry until released; the registry handle is embedded by value so a
// statement snapshot costs one allocation, not two. A snapshot whose table
// scope is known a priori (always under Stmt-SI, where the compiled plan
// names the tables; under Trans-SI only for declared-table transactions) is
// eligible for table GC.
type Snapshot struct {
	m     *Manager
	h     sts.Handle
	kind  SnapshotKind
	scope []ts.TableID
	// scope1 backs scope when it names one table — every Stmt-SI statement
	// and cursor — so those snapshots are a single allocation.
	scope1 [1]ts.TableID
	// parts, when non-nil, narrows the scope below table granularity: the
	// snapshot accesses only these partitions of the (single) scope table —
	// the partition-pruning knowledge §4.3 mentions. The table collector
	// then scopes it to those partitions.
	parts   []ts.PartitionID
	started time.Time

	released atomic.Bool
	killed   atomic.Bool
}

// AcquireSnapshot registers a new snapshot at the current commit timestamp.
// scope lists the tables the snapshot will access when known a priori, or
// nil when unpredictable (plain Trans-SI transactions, §4.3).
func (m *Manager) AcquireSnapshot(kind SnapshotKind, scope []ts.TableID) *Snapshot {
	return m.acquireSnapshot(kind, scope, nil)
}

// acquireSnapshot fully constructs the snapshot — including any partition
// scope — before announcing it: from then on a view finds it behind its
// slot, and the table collector may read it concurrently.
//
// The hot path takes no lock: the timestamp read and the registry publish
// are validated against the scan seqlock and retried on interference, so a
// View holds either the registered snapshot or a bound at or below its
// timestamp (proof sketch in DESIGN.md §15).
func (m *Manager) acquireSnapshot(kind SnapshotKind, scope []ts.TableID, parts []ts.PartitionID) *Snapshot {
	s := &Snapshot{
		m:       m,
		kind:    kind,
		parts:   append([]ts.PartitionID(nil), parts...),
		started: time.Now(),
	}
	s.h.Owner = s
	// The scope is copied either way: the caller keeps its slice.
	if len(scope) == 1 {
		s.scope1[0] = scope[0]
		s.scope = s.scope1[:]
	} else {
		s.scope = append([]ts.TableID(nil), scope...)
	}
	for {
		seq := m.scanSeq.Load()
		if seq&1 == 1 {
			// A scan is in progress; publishing now could slip a timestamp
			// below the bound it is about to return.
			runtime.Gosched()
			continue
		}
		cur := m.CurrentTS()
		m.reg.AcquireInto(&s.h, cur)
		if m.scanSeq.Load() == seq {
			break
		}
		// A scan started (and possibly finished) while we published: it may
		// have read its bound after our timestamp read but before our
		// announcement landed. Retract and retry with a fresh timestamp.
		s.h.Release()
	}
	return s
}

// TS returns the snapshot timestamp: reads see versions with CID <= TS.
func (s *Snapshot) TS() ts.CID { return s.h.TS() }

// Kind returns how the snapshot was created.
func (s *Snapshot) Kind() SnapshotKind { return s.kind }

// ScopeKnown reports whether the complete table set is known a priori.
func (s *Snapshot) ScopeKnown() bool { return len(s.scope) > 0 }

// InScope reports whether the snapshot may access table tid. Snapshots with
// unknown scope may access anything; scoped snapshots are restricted, and
// the engine reports an error on out-of-scope access, mirroring HANA's
// declared-table API ("if the transaction tries to access a non-declared
// table object, an error is reported", §4.3).
func (s *Snapshot) InScope(tid ts.TableID) bool {
	if len(s.scope) == 0 {
		return true
	}
	for _, t := range s.scope {
		if t == tid {
			return true
		}
	}
	return false
}

// AcquireSnapshotPartitions registers a snapshot whose scope is a set of
// partitions of one table — known a priori from the query plan's
// partition-pruning result (§4.3).
func (m *Manager) AcquireSnapshotPartitions(kind SnapshotKind, table ts.TableID, parts []ts.PartitionID) *Snapshot {
	return m.acquireSnapshot(kind, []ts.TableID{table}, parts)
}

// Age returns how long the snapshot has been active.
func (s *Snapshot) Age() time.Duration { return time.Since(s.started) }

// Started returns the acquisition time.
func (s *Snapshot) Started() time.Time { return s.started }

// Scoped reports whether the table collector already narrowed this snapshot
// to its declared tables or partitions.
func (s *Snapshot) Scoped() bool { return s.h.Scoped() != nil }

// Release ends the snapshot by retracting its announcement. Releasing twice
// is a harmless no-op.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	s.h.Release()
	s.m.bell.released(s.h.TS())
}

// Released reports whether the snapshot has ended.
func (s *Snapshot) Released() bool { return s.released.Load() }

// Kill force-closes the snapshot: its announcement is retracted so
// garbage collection can proceed, and subsequent operations that depend on
// it observe Killed and must return an error to the client. This is the
// paper's conventional workaround 2 for version-space overflow ("the system
// closes problematic cursors or Trans-SI transactions by force and returns
// errors to clients", §1), implemented in HANA to handle application
// developers' mistakes.
func (s *Snapshot) Kill() {
	s.killed.Store(true)
	s.Release()
}

// Killed reports whether the snapshot was force-closed.
func (s *Snapshot) Killed() bool { return s.killed.Load() }
