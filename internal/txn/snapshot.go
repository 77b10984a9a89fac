package txn

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// SnapshotKind distinguishes how a snapshot came to exist, which m_snapshots
// reports and the pressure ladder uses when picking victims.
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
// registry until released; the registry handle is embedded by value and
// holds the declared scope. A snapshot whose table scope is known a priori
// (always under Stmt-SI, where the compiled plan names the table; under
// Trans-SI only for declared-table transactions; a cursor, possibly down to
// the partitions its plan pruned to) is eligible for table GC.
//
// A Stmt-SI transaction's statement snapshot is re-armed for each statement
// (Txn.Statement): between two statements it is released and armed again on
// another table at a later timestamp. Everything another goroutine may read
// of it is therefore either atomic or fixed before it was first announced:
// its kind, and started, which for a statement is its transaction's first.
type Snapshot struct {
	m       *Manager
	h       sts.Handle
	kind    SnapshotKind
	started time.Time
	killed  atomic.Bool
}

// AcquireSnapshot registers a new snapshot at the current commit timestamp.
// scope lists the tables the snapshot will access when known a priori, or
// nil when unpredictable (plain Trans-SI transactions, §4.3).
func (m *Manager) AcquireSnapshot(kind SnapshotKind, scope []ts.TableID) *Snapshot {
	return m.newSnapshot(kind, m.declare(scope), time.Now())
}

// AcquireSnapshotPartitions registers a snapshot whose scope is a set of
// partitions of one table — known a priori from the query plan's
// partition-pruning result (§4.3).
func (m *Manager) AcquireSnapshotPartitions(kind SnapshotKind, table ts.TableID, parts []ts.PartitionID) *Snapshot {
	return m.newSnapshot(kind, sts.NewScope([]ts.TableID{table}, parts), time.Now())
}

// declare returns the declared scope of a snapshot that reads tables:
// interned for one table, nil when unknown.
func (m *Manager) declare(tables []ts.TableID) *sts.Scope {
	if len(tables) == 1 {
		return m.reg.TableScope(tables[0])
	}
	return sts.NewScope(tables, nil)
}

func (m *Manager) newSnapshot(kind SnapshotKind, sc *sts.Scope, started time.Time) *Snapshot {
	s := &Snapshot{m: m, kind: kind, started: started}
	s.h.Owner = s
	s.arm(sc)
	return s
}

// arm announces s at the current commit timestamp with declared scope sc.
// Everything else about s is set before: from the announcement on a view
// finds it behind its slot, and the table collector may narrow it.
//
// The hot path takes no lock: the timestamp read and the registry publish
// are validated against the scan seqlock and retried on interference, so a
// View holds either the registered snapshot or a bound at or below its
// timestamp (proof sketch in DESIGN.md §15).
func (s *Snapshot) arm(sc *sts.Scope) {
	m := s.m
	for {
		seq := m.scanSeq.Load()
		if seq&1 == 1 {
			// A scan is in progress; publishing now could slip a timestamp
			// below the bound it is about to return.
			runtime.Gosched()
			continue
		}
		m.reg.AcquireInto(&s.h, m.CurrentTS(), sc)
		if m.scanSeq.Load() == seq {
			return
		}
		// A scan started (and possibly finished) while we published: it may
		// have read its bound after our timestamp read but before our
		// announcement landed. Retract and retry with a fresh timestamp.
		s.h.Release()
	}
}

// TS returns the snapshot timestamp: reads see versions with CID <= TS.
func (s *Snapshot) TS() ts.CID { return s.h.TS() }

// Kind returns how the snapshot was created.
func (s *Snapshot) Kind() SnapshotKind { return s.kind }

// InScope reports whether the snapshot may access table tid. Snapshots with
// unknown scope may access anything; scoped snapshots are restricted, and
// the engine reports an error on out-of-scope access, mirroring HANA's
// declared-table API ("if the transaction tries to access a non-declared
// table object, an error is reported", §4.3).
func (s *Snapshot) InScope(tid ts.TableID) bool {
	tables := s.h.Tables()
	return tables == nil || slices.Contains(tables, tid)
}

// Age returns how long the snapshot has been active; a statement's counts
// from its transaction's first statement.
func (s *Snapshot) Age() time.Duration { return time.Since(s.started) }

// Started returns the acquisition time; a statement's is its transaction's
// first statement's.
func (s *Snapshot) Started() time.Time { return s.started }

// Scoped reports whether the table collector already narrowed this snapshot
// to its declared tables or partitions.
func (s *Snapshot) Scoped() bool { return s.h.Scoped() != nil }

// Release ends the snapshot by retracting its announcement. Releasing twice
// is a harmless no-op.
func (s *Snapshot) Release() {
	if s.h.Retract() {
		s.m.released(s.h.TS())
	}
}

// Released reports whether the snapshot has ended (a statement snapshot:
// whether it is between two statements).
func (s *Snapshot) Released() bool { return !s.h.Held() }

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
