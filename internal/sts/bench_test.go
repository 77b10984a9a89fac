package sts

import "testing"

// BenchmarkSnapshotAcquireParallel measures the per-slot announcement hot
// path under parallel load: each acquire/release pair is one CAS plus one
// atomic store into a padded slot, with no shared mutex. Every goroutine
// re-acquires one handle, as a transaction re-arms its statement snapshot,
// so each probes the slot it freed last.
func BenchmarkSnapshotAcquireParallel(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var h Handle
		for pb.Next() {
			r.AcquireInto(&h, 42, nil)
			h.Release()
		}
	})
}
