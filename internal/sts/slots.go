package sts

import (
	"math/rand/v2"
	"sync/atomic"
)

// Per-slot snapshot announcement (Ben-David et al., "Space and Time Bounded
// Multiversion Garbage Collection"; Wei & Fatourou): a snapshot publishes
// itself into one padded slot with a single CAS and retracts with a single
// CAS. The ordered views the collectors need (min / sorted set) are rebuilt
// by scanning the slots only when a GC pass asks — the per-statement hot path
// is contention-free per-slot atomics, the O(#slots) cost sits on the rare
// reader side.

const (
	// segSlots is the size of one segment of the announcement array: 256
	// padded slots are 16 KiB — a realistic statement mix never leaves the
	// first segment, and a GC-side scan of it stays trivially cheap.
	segSlots = 256
	slotMask = segSlots - 1
)

// slot is one announcement cell, padded to its own cache line so concurrent
// snapshots on different cores never false-share. owner is the handle
// announcing through it, nil while the slot is free; the timestamp and scope
// are the handle's, stored before the CAS that claims the slot.
type slot struct {
	owner atomic.Pointer[Handle]
	_     [56]byte
}

// segment is a fixed block of slots. Segments form a list that only grows:
// one is appended when every slot of every existing segment is taken, and
// none is ever unlinked, so the array's footprint is 16 KiB of slots per 256
// snapshots of peak concurrency.
type segment struct {
	slots [segSlots]slot
	next  atomic.Pointer[segment]
}

// claim publishes h into a free slot of the list starting at seg, appending
// a segment when all are full, and returns the slot and its index within its
// segment. A handle that is acquired again (a transaction's re-armed
// statement snapshot) probes first the slot it freed last and hits on the
// first CAS, against a cache line its core already owns. A fresh handle
// starts at a random slot, so cold acquirers spread over the segment without
// sharing a counter.
func (seg *segment) claim(h *Handle) (*slot, uint32) {
	start := h.probe - 1
	if h.probe == 0 {
		start = rand.Uint32()
	}
	for {
		for i := uint32(0); i < segSlots; i++ {
			idx := (start + i) & slotMask
			s := &seg.slots[idx]
			if s.owner.Load() == nil && s.owner.CompareAndSwap(nil, h) {
				return s, idx
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
