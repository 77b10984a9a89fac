package sts

import (
	"sync"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// Per-slot snapshot announcement (Ben-David et al., "Space and Time Bounded
// Multiversion Garbage Collection"; Wei & Fatourou): a snapshot publishes its
// timestamp into one padded slot with a single CAS and retracts it with a
// single atomic store. The ordered views the collectors need (min / sorted
// set) are rebuilt by scanning the slots only when a GC pass asks — the
// per-statement hot path is contention-free per-slot atomics, the O(#slots)
// cost sits on the rare reader side.

const (
	// segSlots is the size of one segment of the announcement array: 256
	// padded slots are 16 KiB — a realistic statement mix never leaves the
	// first segment, and a GC-side scan of it stays trivially cheap.
	segSlots = 256
	slotMask = segSlots - 1
)

// slot is one announcement cell, padded to its own cache line so concurrent
// snapshots on different cores never false-share.
type slot struct {
	// v holds the announced timestamp encoded as CID+1; 0 means empty. The
	// +1 shift is load-bearing: CID 0 is a valid snapshot timestamp (the
	// commit counter starts at 0), so the empty sentinel must live outside
	// the CID domain.
	v atomic.Uint64
	// owner is the handle announcing through this slot, stored after v is
	// claimed and cleared before v is. A scan that finds v set and owner
	// nil treats the announcement as unscoped — the conservative reading.
	owner atomic.Pointer[Handle]
	_     [48]byte
}

// segment is a fixed block of slots. Segments form a list that only grows:
// one is appended when every slot of every existing segment is taken, and
// none is ever unlinked, so the array's footprint is 16 KiB of slots per 256
// snapshots of peak concurrency.
type segment struct {
	slots [segSlots]slot
	next  atomic.Pointer[segment]
}

// slotHint carries the slot index a P last acquired successfully. Boxes
// travel through a sync.Pool, which gives per-P affinity without goroutine
// IDs: the common statement pattern (acquire, release, acquire again on the
// same core) re-probes the slot it just freed and hits on the first CAS
// against a cache line it already owns.
type slotHint struct{ idx uint32 }

var slotHintSeed atomic.Uint32

var slotHintPool = sync.Pool{New: func() any {
	// Spread initial probe points so cold-start acquirers do not pile onto
	// slot 0 (Fibonacci hashing of a global counter).
	return &slotHint{idx: slotHintSeed.Add(1) * 0x9E3779B1 & slotMask}
}}

// claim publishes c into a free slot of the list starting at seg, appending
// a segment when all are full, and returns the slot.
func (seg *segment) claim(c ts.CID) *slot {
	v := uint64(c) + 1
	if v == 0 {
		panic("sts: snapshot timestamp outside the announceable domain")
	}
	h := slotHintPool.Get().(*slotHint)
	for {
		for i := uint32(0); i < segSlots; i++ {
			idx := (h.idx + i) & slotMask
			s := &seg.slots[idx]
			if s.v.Load() == 0 && s.v.CompareAndSwap(0, v) {
				h.idx = idx
				slotHintPool.Put(h)
				return s
			}
		}
		next := seg.next.Load()
		if next == nil {
			next = new(segment)
			if !seg.next.CompareAndSwap(nil, next) {
				next = seg.next.Load() // another acquirer appended first
			}
		}
		seg = next
	}
}
