package wal

import (
	"testing"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// BenchmarkWALAppendGroup is the commit-group path through a Sync log: a
// group of 16 members x 4 ops x 64 B framed as one record in the reused
// buffer, one Write, one fsync.
func BenchmarkWALAppendGroup(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), Sync: true}, End{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const members, ops = 16, 4
	img := make([]byte, 64)
	group := &Record{Kind: KindGroup, CID: 1}
	for i := 0; i < members*ops; i++ {
		group.Ops = append(group.Ops, Op{Op: mvcc.OpUpdate, Table: 1, RID: ts.RID(i + 1), Payload: img})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(group); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := l.MetricsSnapshot()
	b.ReportMetric(float64(m.Syncs)/float64(m.Batches), "syncs/group")
	b.ReportMetric(float64(l.Size())/float64(m.Batches), "bytes/group")
}
