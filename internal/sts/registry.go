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
// segments are linked behind, and the interned single-table scopes. Create
// one with NewRegistry; it must not be copied.
type Registry struct {
	head   segment
	tables [maxInterned]atomic.Pointer[Scope] // TableScope's, set on first use
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// maxInterned bounds the interned table IDs, which are dense from 1: 8 KiB
// of pointers per registry. A scope of a larger ID is built per call.
const maxInterned = 1 << 10

// Scope is what a snapshot can read: a set of tables, or (parts non-nil) some
// partitions of tables[0]. Records are immutable and come in twins. The
// declared record is what an acquirer knows a priori and arms its handle
// with; a view reads it as unscoped. Its narrowed twin is what the table
// collector swaps in (Handle.Narrow), and only that one takes the snapshot
// out of the other tables' horizons.
type Scope struct {
	tables []ts.TableID
	parts  []ts.PartitionID
	// narrowed is a declared record's twin; nil on the narrowed record.
	narrowed *Scope
}

// NewScope returns the declared scope of a snapshot that reads tables or,
// with parts non-empty, those partitions of tables[0]; nil (unknown) for no
// tables. Both slices are copied.
func NewScope(tables []ts.TableID, parts []ts.PartitionID) *Scope {
	if len(tables) == 0 {
		return nil
	}
	twins := new([2]Scope)
	twins[1].tables = slices.Clone(tables)
	if len(parts) > 0 {
		twins[1].parts = slices.Clone(parts)
	}
	twins[0] = Scope{tables: twins[1].tables, parts: twins[1].parts, narrowed: &twins[1]}
	return &twins[0]
}

// TableScope returns the declared scope of a snapshot that reads table tid
// alone — every Stmt-SI statement, a cursor — interned, so arming a handle
// with it allocates nothing.
func (r *Registry) TableScope(tid ts.TableID) *Scope {
	if tid >= maxInterned {
		return NewScope([]ts.TableID{tid}, nil)
	}
	p := &r.tables[tid]
	if sc := p.Load(); sc != nil {
		return sc
	}
	p.CompareAndSwap(nil, NewScope([]ts.TableID{tid}, nil))
	return p.Load()
}

// Handle is what one snapshot holds while active: its slot, and its scope.
// It is either held or released, and may be acquired again once released.
//
// Every atomic write here is a locked instruction, and a Stmt-SI
// transaction re-acquires its handle for each of its statements, so the
// protocol writes only what changed: an acquisition that lands on the slot
// it held last, at the timestamp and scope it had, is the one CAS that
// claims the slot, and a release is the one CAS that frees it.
type Handle struct {
	// Owner is whatever the acquirer wants Scan callers to find behind the
	// announcement (the transaction layer's snapshot). Set it before
	// acquiring; this package never reads it.
	Owner any

	// slot is the slot this handle claimed last, kept after release: the
	// handle is held while that slot's owner is this handle.
	slot atomic.Pointer[slot]
	// ts is the announced timestamp. A scan reads it after finding the
	// handle in a slot, so it is atomic: the handle may be re-acquired
	// meanwhile.
	ts atomic.Uint64
	// scope is the current acquisition's: nil when unknown, the declared
	// record it was acquired with, or that record's narrowed twin. It lives
	// here and not in the slot: a store into a slot could land after the slot
	// was released and claimed by another snapshot. Acquiring stores the
	// declared record unless the handle holds it or its twin already, either
	// of which states the new acquisition's scope exactly; narrowing is a CAS
	// from the declared record to its twin. So a narrowing meant for an
	// earlier acquisition of this handle lands only if the current one
	// declared the same record — and then it is exact.
	scope atomic.Pointer[Scope]
	// probe is where the next claim starts probing: the index of the slot
	// this handle claimed last, plus one; zero before its first claim. Only
	// the acquirer touches it.
	probe uint32
}

// TS returns the snapshot timestamp the handle pins.
func (h *Handle) TS() ts.CID { return ts.CID(h.ts.Load()) }

// Tables returns the tables the handle's scope names, narrowed or not, or
// nil when unknown. The slice is shared; callers must not modify it.
func (h *Handle) Tables() []ts.TableID {
	if sc := h.scope.Load(); sc != nil {
		return sc.tables
	}
	return nil
}

// Scoped returns the tables the handle was narrowed to by table GC, or nil
// while it is still unscoped. The slice is shared; callers must not modify
// it.
func (h *Handle) Scoped() []ts.TableID {
	if sc := h.constraint(); sc != nil {
		return sc.tables
	}
	return nil
}

// constraint returns the scope a view must apply: the narrowed record, or nil
// while the handle constrains every table.
func (h *Handle) constraint() *Scope {
	if sc := h.scope.Load(); sc != nil && sc.narrowed == nil {
		return sc
	}
	return nil
}

// AcquireInto pins timestamp c into h, which must be zero-valued or
// released, with declared scope sc (nil when unknown): one CAS into the
// announcement array, unless every slot is taken and a segment has to be
// appended first. c must not be ts.Infinity, the end of the timestamp
// domain: every acquirer reads the commit timestamp, so only a bug can pass
// it.
func (r *Registry) AcquireInto(h *Handle, c ts.CID, sc *Scope) {
	if c == ts.Infinity {
		panic("sts: snapshot timestamp outside the announceable domain")
	}
	if h.ts.Load() != uint64(c) {
		h.ts.Store(uint64(c))
	}
	if cur := h.scope.Load(); cur != sc && (sc == nil || cur != sc.narrowed) {
		h.scope.Store(sc)
	}
	s, idx := r.head.claim(h)
	h.probe = idx + 1
	if h.slot.Load() != s {
		h.slot.Store(s)
	}
}

// Held reports whether h is acquired and not yet released.
func (h *Handle) Held() bool {
	s := h.slot.Load()
	return s != nil && s.owner.Load() == h
}

// Release retracts the announcement. Safe to call exactly once per
// acquisition; a second call panics, mirroring a double snapshot close.
func (h *Handle) Release() {
	if !h.Retract() {
		panic("sts: Handle released twice")
	}
}

// Retract is Release for a holder whose release may race another (an owner's
// against a force-close): exactly one of them retracts the announcement and
// reports true.
func (h *Handle) Retract() bool {
	s := h.slot.Load()
	return s != nil && s.owner.CompareAndSwap(h, nil)
}

// Narrow is the table collector's step 2 (§4.3) for a handle whose scope was
// declared: one CAS from the declared record to its narrowed twin, after
// which the snapshot constrains only its tables (or partitions). The
// timestamp never moves, so it stays pinned throughout. It reports whether it
// narrowed; a handle that is released, unscoped or already narrowed is left
// alone.
func (h *Handle) Narrow() bool {
	sc := h.scope.Load()
	return sc != nil && sc.narrowed != nil && h.Held() && h.scope.CompareAndSwap(sc, sc.narrowed)
}

// Scan calls f for every announcement with its timestamp and handle. A handle
// held across the whole scan is reported once, at its timestamp.
// Announcements made or retracted while the scan runs may or may not be
// reported; the timestamp is read from the handle after it is found, so one
// released and acquired again meanwhile is reported at its later timestamp,
// perhaps twice if it moved slots — an acquisition that overlapped the scan,
// which the transaction manager's seqlock retries (DESIGN.md §15.2).
func (r *Registry) Scan(f func(c ts.CID, h *Handle)) {
	for seg := &r.head; seg != nil; seg = seg.next.Load() {
		for i := range seg.slots {
			if h := seg.slots[i].owner.Load(); h != nil {
				f(h.TS(), h)
			}
		}
	}
}
