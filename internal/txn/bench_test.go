package txn

import (
	"sync/atomic"
	"testing"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

// BenchmarkSnapshotAcquireStmtParallel measures the full statement-snapshot
// path — seqlock-validated timestamp read and slot-array announcement —
// under parallel load. The bare registry layer is internal/sts's
// BenchmarkSnapshotAcquireParallel.
func BenchmarkSnapshotAcquireStmtParallel(b *testing.B) {
	m := NewManager(mvcc.NewSpace(256), sts.NewRegistry(), Config{})
	defer m.Close()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := m.AcquireSnapshot(KindStatement, nil)
			s.Release()
		}
	})
}

// commitOne commits one single-version transaction on a fresh RID
// (insert-like, no write-write conflicts).
func commitOne(b *testing.B, m *Manager, rec *nopRecord, rid uint64) {
	txn := m.Begin(StmtSI, nil)
	v := mvcc.NewVersion(mvcc.OpInsert,
		ts.RecordKey{Table: 1, RID: ts.RID(rid)},
		[]byte("img"), txn.Context())
	txn.Context().Add(v)
	if _, err := m.Space().Prepend(rec, v, txn.ConflictCheck()); err != nil {
		b.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCommitParallel measures commit end to end under parallel writers:
// pooled request, one FIFO queue, the first arrival leading a group and the
// rest piggybacking on it, lock-free group-list publication. Run it at
// -cpu 1,2,4: at 1 every commit is its own leader, above that followers park
// and leadership is handed from group to group.
func BenchmarkCommitParallel(b *testing.B) {
	m := NewManager(mvcc.NewSpace(1<<16), sts.NewRegistry(), Config{})
	defer m.Close()
	var rid atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rec := &nopRecord{}
		for pb.Next() {
			commitOne(b, m, rec, rid.Add(1))
		}
	})
}

// BenchmarkCommitSerial is the uncontended path: one goroutine, so every
// commit leads a group of one and touches no channel and no other goroutine
// on its way.
func BenchmarkCommitSerial(b *testing.B) {
	m := NewManager(mvcc.NewSpace(1<<16), sts.NewRegistry(), Config{})
	defer m.Close()
	rec := &nopRecord{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		commitOne(b, m, rec, uint64(i)+1)
	}
}
