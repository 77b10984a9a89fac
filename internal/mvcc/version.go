// Package mvcc implements the version space of the SAP HANA row store as
// described in §2.2 of the paper: version entries with headers and payloads,
// latest-first version chains reachable through a central RID hash table,
// TransContext and GroupCommitContext objects with atomic indirect CID
// assignment, and the ordered group-commit list that the group and interval
// garbage collectors scan.
package mvcc

import (
	"fmt"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// OpType is the creator's operation type stored in each version header.
type OpType uint8

const (
	// OpInsert records the creation of a record. The record image becomes
	// the table-space image once garbage collection migrates it.
	OpInsert OpType = iota + 1
	// OpUpdate records a new image for an existing record.
	OpUpdate
	// OpDelete records the deletion of a record; it carries no payload.
	OpDelete
)

// String implements fmt.Stringer.
func (op OpType) String() string {
	switch op {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(op))
	}
}

// Version is one record version (version entry): a header — operation type,
// record key, chain linkage, creator context — plus the payload holding the
// new record image (nil for DELETE).
//
// The CID is not stored directly at commit time. It is resolved indirectly
// through the creator's TransContext and its GroupCommitContext, and cached
// in cid once known (the paper's atomic indirect CID assignment with
// backward propagation: the committer stamps it, a reader that gets there
// first caches it).
type Version struct {
	Op OpType
	// slot is the version's index in its TransContext's list: Add sets it,
	// and retire clears the list entry there. It sits in the padding after
	// Op, so a version stays 96 bytes.
	slot    uint32
	Key     ts.RecordKey
	Payload []byte

	tctx  *TransContext
	chain *Chain

	cid       atomic.Uint64
	older     atomic.Pointer[Version]
	reclaimed atomic.Bool
	// held is the snapshot timestamp (+1; 0 = none) interval reclamation
	// last found inside the version's closed visible interval — see
	// Space.ReclaimIntervals.
	held atomic.Uint64
}

// NewVersion builds a version entry owned by the given transaction context.
// The chain pointer is installed when the version is linked.
func NewVersion(op OpType, key ts.RecordKey, payload []byte, tctx *TransContext) *Version {
	return &Version{Op: op, Key: key, Payload: payload, tctx: tctx}
}

// CID returns the version's commit identifier, or ts.Invalid while the
// creating transaction has not committed. The first successful resolution
// through TransContext→GroupCommitContext is cached on the version itself,
// which is exactly the backward CID propagation of §2.2 performed lazily.
func (v *Version) CID() ts.CID {
	if c := v.cid.Load(); c != 0 {
		return ts.CID(c)
	}
	tc := v.tctx
	if tc == nil {
		return ts.Invalid
	}
	gcc := tc.gcc.Load()
	if gcc == nil {
		return ts.Invalid
	}
	c := gcc.cid.Load()
	if c == 0 {
		return ts.Invalid
	}
	v.cid.Store(c)
	return ts.CID(c)
}

// SetCID caches the resolved CID on the version (backward propagation).
func (v *Version) SetCID(c ts.CID) { v.cid.Store(uint64(c)) }

// Propagated reports whether the CID has been written into the version entry
// itself, i.e. resolving it no longer follows pointers.
func (v *Version) Propagated() bool { return v.cid.Load() != 0 }

// Committed reports whether the creating transaction has committed.
func (v *Version) Committed() bool { return v.CID() != ts.Invalid }

// Older returns the next-older version in the chain (nil at the tail).
func (v *Version) Older() *Version { return v.older.Load() }

// Chain returns the version chain this version is (or was) linked into.
func (v *Version) Chain() *Chain { return v.chain }

// TransContext returns the creator's transaction context.
func (v *Version) TransContext() *TransContext { return v.tctx }

// Reclaimed reports whether a garbage collector already unlinked the version.
func (v *Version) Reclaimed() bool { return v.reclaimed.Load() }

// HeldBy returns the snapshot timestamp interval reclamation last found
// keeping this version alive inside its closed visible interval; ok is false
// for a version no interval pass has had to keep.
func (v *Version) HeldBy() (by ts.CID, ok bool) {
	h := v.held.Load()
	return ts.CID(h - 1), h != 0
}

// markReclaimed flags the version as collected; returns false if it was
// already flagged (idempotence guard for collectors).
func (v *Version) markReclaimed() bool {
	return v.reclaimed.CompareAndSwap(false, true)
}

// String implements fmt.Stringer for debugging and test failure output.
func (v *Version) String() string {
	return fmt.Sprintf("%s t%d/r%d cid=%d", v.Op, v.Key.Table, v.Key.RID, v.CID())
}
