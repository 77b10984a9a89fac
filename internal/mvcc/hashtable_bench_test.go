package mvcc

import (
	"fmt"
	"testing"

	"hybridgc/internal/ts"
)

// benchKeys is sized well above the bucket count so lookups pay realistic
// collision-list traversals.
const benchKeys = 1 << 16

func benchTable(b *testing.B) *HashTable {
	b.Helper()
	ht := NewHashTable(DefaultBuckets)
	for i := 0; i < benchKeys; i++ {
		ht.GetOrCreate(ts.RecordKey{Table: 1, RID: ts.RID(i + 1)}, &fakeRecord{})
	}
	return ht
}

// BenchmarkHashGetParallel measures RID hash-table lookup throughput under
// parallel readers — the navigation cost of Figure 13, and the path the
// lock-free read conversion targets.
func BenchmarkHashGetParallel(b *testing.B) {
	ht := benchTable(b)
	b.ReportAllocs()
	b.SetParallelism(8) // 8 reader goroutines even on a single-P box
	b.RunParallel(func(pb *testing.PB) {
		// Cheap per-goroutine LCG so readers fan out over distinct keys.
		x := uint64(0x9e3779b97f4a7c15)
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			if c := ht.Get(ts.RecordKey{Table: 1, RID: ts.RID(x%benchKeys + 1)}); c == nil {
				b.Fatal("missing chain")
			}
		}
	})
}

// BenchmarkHashStats reads the collision statistics of a table at two bucket
// counts, half the buckets occupied. Stats reads counters the mutators keep,
// so ns/op must not grow with the bucket count: the sampler and every
// read-pool endpoint call it several times a second.
func BenchmarkHashStats(b *testing.B) {
	for _, buckets := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			ht := NewHashTable(buckets)
			for i := 0; i < buckets/2; i++ {
				create(ht, ts.RecordKey{Table: 1, RID: ts.RID(i + 1)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ht.Stats().Chains == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkHashGetSerial is the single-goroutine baseline for the same
// lookup, separating per-call cost from contention cost.
func BenchmarkHashGetSerial(b *testing.B) {
	ht := benchTable(b)
	b.ReportAllocs()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if c := ht.Get(ts.RecordKey{Table: 1, RID: ts.RID(x%benchKeys + 1)}); c == nil {
			b.Fatal("missing chain")
		}
	}
}
