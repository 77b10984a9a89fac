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
// under parallel load. The registry-layer comparison
// against the locked cost model lives in internal/sts
// (BenchmarkSnapshotAcquireParallel vs ...ParallelLocked).
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

// BenchmarkCommitParallel measures commit submission end to end under
// parallel writers: pooled request, sharded intake, one group commit per
// sweep, lock-free group-list publication. Each iteration commits one
// single-version transaction on a fresh RID (insert-like, no write-write
// conflicts).
func BenchmarkCommitParallel(b *testing.B) {
	m := NewManager(mvcc.NewSpace(1<<16), sts.NewRegistry(), Config{})
	defer m.Close()
	var rid atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rec := &nopRecord{}
		for pb.Next() {
			txn := m.Begin(StmtSI, nil)
			v := mvcc.NewVersion(mvcc.OpInsert,
				ts.RecordKey{Table: 1, RID: ts.RID(rid.Add(1))},
				[]byte("img"), txn.Context())
			txn.Context().Add(v)
			if _, err := m.Space().Prepend(rec, v, txn.ConflictCheck()); err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
