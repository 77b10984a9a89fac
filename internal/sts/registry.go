// Package sts records the live snapshot timestamps of §4.1 and §4.3 of the
// paper in one structure: a growable array of announcement slots (slots.go).
// A snapshot publishes its timestamp with one CAS and retracts it with one
// atomic store; the table collector narrows it to the tables it can read
// with one more. Everything a collector asks for — the global minimum
// (Fig. 6), the per-table and per-partition minimums (Fig. 8), the union of
// §4.4 and the sorted set S of Algorithm 1 — is answered from one scan of
// those slots (View), so no per-table state outlives the snapshot that caused
// it.
package sts

import (
	"slices"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// Registry is the announcement array: its first segment, which later
// segments are linked behind. Create one with NewRegistry; it must not be
// copied.
type Registry struct {
	head segment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// scope is what the table collector learned a snapshot can read: a set of
// tables, or (parts non-nil) some partitions of tables[0]. Immutable once
// published.
type scope struct {
	tables []ts.TableID
	parts  []ts.PartitionID
}

// Handle is what one snapshot holds while active: its slot, and the scope
// the table collector may attach. It is either held or released.
type Handle struct {
	// Owner is whatever the acquirer wants Scan callers to find behind the
	// announcement (the transaction layer's snapshot). Set it before
	// acquiring; this package never reads it.
	Owner any

	slot atomic.Pointer[slot] // nil once released
	// ts is atomic because a handle may be re-acquired while a scan still
	// holds the pointer it found in the slot.
	ts atomic.Uint64
	// scope lives here and not in the slot: a store into a slot could land
	// after the slot was released and claimed by another snapshot, whereas
	// the handle is only ever this snapshot's. Set at most once per
	// acquisition, and only ever from nil.
	scope atomic.Pointer[scope]
}

// TS returns the snapshot timestamp the handle pins.
func (h *Handle) TS() ts.CID { return ts.CID(h.ts.Load()) }

// Scoped returns the tables the handle was narrowed to by table GC, or nil
// while it is still unscoped. The slice is shared; callers must not modify
// it.
func (h *Handle) Scoped() []ts.TableID {
	if sc := h.scope.Load(); sc != nil {
		return sc.tables
	}
	return nil
}

// Acquire pins timestamp c and returns a fresh handle. A replica's horizon
// pin (txn.Manager.Pin) uses this form; a Snapshot embeds its handle and
// calls AcquireInto to avoid the allocation.
func (r *Registry) Acquire(c ts.CID) *Handle {
	h := new(Handle)
	r.AcquireInto(h, c)
	return h
}

// AcquireInto pins timestamp c into h, which must be zero-valued or
// released: one CAS into the announcement array, unless every slot is taken
// and a segment has to be appended first.
func (r *Registry) AcquireInto(h *Handle, c ts.CID) {
	h.ts.Store(uint64(c))
	h.scope.Store(nil)
	s := r.head.claim(c)
	h.slot.Store(s)
	s.owner.Store(h)
}

// Release retracts the announcement. Safe to call exactly once; a second
// call panics, mirroring a double snapshot close.
func (h *Handle) Release() {
	s := h.slot.Swap(nil)
	if s == nil {
		panic("sts: Handle released twice")
	}
	s.owner.Store(nil)
	s.v.Store(0)
}

// ScopeToTables is the table collector's step 2 (§4.3): from now on the
// snapshot constrains only the given tables. The timestamp never moves, so
// it stays pinned throughout. Scoping an already-scoped or released handle
// is a no-op; callers pass the complete table set once. It reports whether
// the scope was set.
func (h *Handle) ScopeToTables(tables []ts.TableID) bool {
	if len(tables) == 0 {
		return false
	}
	return h.setScope(&scope{tables: slices.Clone(tables)})
}

// ScopeToPartitions is the partition-granular variant of ScopeToTables
// (§4.3's finer-granular semantic optimization): the snapshot only blocks
// reclamation inside the given partitions of one table. Reports whether the
// scope was set.
func (h *Handle) ScopeToPartitions(table ts.TableID, parts []ts.PartitionID) bool {
	if len(parts) == 0 {
		return false
	}
	return h.setScope(&scope{tables: []ts.TableID{table}, parts: slices.Clone(parts)})
}

func (h *Handle) setScope(sc *scope) bool {
	return h.slot.Load() != nil && h.scope.CompareAndSwap(nil, sc)
}

// Scan calls f for every announcement with its timestamp and owning handle.
// h is nil for an announcement whose owner is not visible yet (an acquire in
// flight). Announcements made or retracted while the scan runs may or may
// not be reported.
func (r *Registry) Scan(f func(c ts.CID, h *Handle)) {
	for seg := &r.head; seg != nil; seg = seg.next.Load() {
		for i := range seg.slots {
			s := &seg.slots[i]
			if v := s.v.Load(); v != 0 {
				f(ts.CID(v-1), s.owner.Load())
			}
		}
	}
}
