package mvcc

import (
	"errors"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// errDeadChain is what the link step of Prepend reports when a collector
// removed the chain between its lookup and its latch; Prepend looks the
// chain up again, so no caller ever observes it.
var errDeadChain = errors.New("mvcc: chain removed concurrently")

// Space is the version space: the RID hash table of version chains, the
// ordered group-commit list, and the global version accounting that the
// evaluation section reports ("Active Versions").
type Space struct {
	HT     *HashTable
	Groups *GroupList

	// The pad keeps the counters below off the line every operation loads HT
	// and Groups from. Writers add to them once per transaction (Flush),
	// collectors once per call.
	_         [64]byte
	live      atomic.Int64 // versions currently linked in chains
	liveBytes atomic.Int64 // payload + header bytes of live versions
	created   atomic.Int64 // versions ever created
	reclaimed atomic.Int64 // versions unlinked by garbage collection
	rolled    atomic.Int64 // versions undone by rollback
	migrated  atomic.Int64 // images migrated into the table space
}

// tally is what one transaction's links and rollbacks since its last flush
// owe the shared counters: versions linked and rolled back, their net
// footprint, and the chains and occupied buckets its lookups created and its
// rollbacks removed. It lives on the TransContext and is touched only by
// whoever owns the transaction — its own goroutine, or the commit leader
// while the transaction waits in the commit queue — so it takes no atomic.
// The counts are small between flushes, so 32 bits hold them; that keeps the
// TransContext, which outlives its transaction while its group holds a live
// version, in the 80-byte size class.
type tally struct {
	bytes                             int64
	created, rolled, chains, occupied int32
}

// tallyFlush is how many links and rollbacks a tally accrues before it
// flushes by itself, which bounds how far Live() strays from the versions
// actually linked: by fewer than tallyFlush per unfinished transaction —
// for the pressure ladder, the collector's bell, and a bulk load that links
// thousands of versions in one transaction alike.
const tallyFlush = 64

// Flush adds tc's tally to the shared counters and clears it. The commit
// leader flushes every member of a group before it assigns the group's CID
// (and a replica's applier before it publishes), and a transaction that
// rolls back flushes after its rollback, so a collector never takes a
// version off the counters before its transaction put it on.
func (s *Space) Flush(tc *TransContext) {
	t := tc.tally
	tc.tally = tally{}
	if n := t.created - t.rolled; n != 0 {
		s.live.Add(int64(n))
	}
	if t.bytes != 0 {
		s.liveBytes.Add(t.bytes)
	}
	if t.created != 0 {
		s.created.Add(int64(t.created))
	}
	if t.rolled != 0 {
		s.rolled.Add(int64(t.rolled))
	}
	s.HT.add(int64(t.chains), int64(t.occupied))
}

// versionHeaderBytes approximates the fixed per-version cost (header,
// pointers, bookkeeping) added to the payload when accounting memory — the
// "Used Memory" indicator of Figure 2.
const versionHeaderBytes = 96

// Footprint is the version's accounted size: LiveBytes is the sum of it over
// the versions linked.
func (v *Version) Footprint() int64 {
	return versionHeaderBytes + int64(len(v.Payload))
}

// NewSpace creates a version space with the given hash table size (<=0 picks
// the default).
func NewSpace(buckets int) *Space {
	return &Space{HT: NewHashTable(buckets), Groups: NewGroupList()}
}

// Live returns the number of record versions currently in the version space
// (the "number of record versions" series of Figures 10 and 17). A version
// counts from when its transaction flushes its tally (Flush): when the
// transaction commits or aborts, or sooner once it has linked tallyFlush.
func (s *Space) Live() int64 { return s.live.Load() }

// LiveBytes returns the accounted memory of live versions (payloads plus a
// fixed per-version header cost) — Figure 2's "Used Memory".
func (s *Space) LiveBytes() int64 { return s.liveBytes.Load() }

// Created returns the number of versions ever appended.
func (s *Space) Created() int64 { return s.created.Load() }

// ReclaimedTotal returns the number of versions reclaimed by collectors.
func (s *Space) ReclaimedTotal() int64 { return s.reclaimed.Load() }

// MigratedTotal returns the number of images migrated to the table space.
func (s *Space) MigratedTotal() int64 { return s.migrated.Load() }

// RolledBackTotal returns the number of versions undone by rollbacks.
func (s *Space) RolledBackTotal() int64 { return s.rolled.Load() }

// Prepend links v as the newest version of its record. check, if non-nil,
// runs under the chain latch against the current head and may veto the write
// (write-write conflict detection); a veto aborts the link and returns the
// veto error. The record's is_versioned flag is raised. The version, and the
// chain its lookup may have created, go on the tally of v's TransContext,
// which every linked version carries.
func (s *Space) Prepend(rec RecordRef, v *Version, check func(head *Version) error) (*Chain, error) {
	t := &v.tctx.tally
	for {
		c, chains, occupied := s.HT.GetOrCreate(v.Key, rec)
		t.chains += int32(chains)
		t.occupied += int32(occupied)
		err := func() error {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.dead {
				return errDeadChain
			}
			if check != nil {
				if err := check(c.head.Load()); err != nil {
					return err
				}
			}
			c.prependLocked(v)
			rec.SetVersioned(true)
			return nil
		}()
		switch {
		case err == nil:
			t.created++
			t.bytes += v.Footprint()
			if t.created+t.rolled >= tallyFlush {
				s.Flush(v.tctx)
			}
			return c, nil
		case errors.Is(err, errDeadChain):
			continue // chain was collected out from under us; retry lookup
		default:
			return nil, err
		}
	}
}

// Rollback undoes an uncommitted version: it is spliced out of its chain,
// and when that empties the chain the chain is dropped from the hash table.
// For a rolled-back INSERT the record itself is dropped from the table
// space; otherwise the record's is_versioned flag is cleared when the chain
// disappears. Reports whether the version was actually unlinked. What it
// undoes nets against the tally of v's TransContext; only the transaction's
// owner may call it.
func (s *Space) Rollback(v *Version) bool {
	c := v.chain
	if c == nil {
		return false
	}
	c.mu.Lock()
	if c.dead || !c.spliceOutLocked(v) {
		c.mu.Unlock()
		return false
	}
	emptied := c.head.Load() == nil
	if emptied {
		c.dead = true
		if v.Op == OpInsert {
			c.Rec.DropRecord()
		} else {
			c.Rec.SetVersioned(false)
		}
	}
	c.mu.Unlock()
	t := &v.tctx.tally
	if emptied {
		chains, occupied := s.HT.Remove(c)
		t.chains += int32(chains)
		t.occupied += int32(occupied)
	}
	t.rolled++
	t.bytes -= v.Footprint()
	if t.created+t.rolled >= tallyFlush {
		s.Flush(v.tctx)
	}
	return true
}

// retire flags v as collected, drops it from its transaction's list — so a
// group still linked for its other versions does not keep it on the heap —
// and takes it off its commit group's live count; the caller that takes the
// count to zero unlinks the group, wherever it sits in the list. It reports
// whether v was newly collected (the idempotence guard for collectors) and
// whether that drained its group. Callers hold the chain latch; the group
// list's mutex nests inside it and never the other way round.
func (s *Space) retire(v *Version) (ok, drained bool) {
	if !v.markReclaimed() {
		return false, false
	}
	if v.tctx == nil {
		return true, false
	}
	v.tctx.unlink(v)
	if g := v.tctx.Group(); g != nil && g.live.Add(-1) == 0 {
		s.Groups.Remove(g)
		return true, true
	}
	return true, false
}

// ReclaimResult reports what one chain-level reclamation did.
type ReclaimResult struct {
	Versions int  // versions unlinked
	Groups   int  // commit groups this drained and unlinked from the list
	Migrated bool // an image moved into the table space
	Dropped  bool // the record was deleted from the table space
	Emptied  bool // the chain disappeared from the hash table
}

// ReclaimBelow performs timestamp-based reclamation on one chain: every
// committed version with CID < min is unlinked; the newest of them first has
// its effect migrated into the table space (image installed, or record
// dropped for DELETE). This is the chain-level primitive behind the ST, GT
// and TG collectors. It is idempotent: a second call with the same horizon
// reclaims nothing.
func (s *Space) ReclaimBelow(c *Chain, min ts.CID) ReclaimResult {
	var res ReclaimResult
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return res
	}
	// Find the newest committed version below the horizon and its newer
	// neighbor. The chain is latest-first, so candidates form the suffix.
	var newer, boundary *Version
	for cur := c.head.Load(); cur != nil; cur = cur.Older() {
		if cid := cur.CID(); cid != ts.Invalid && cid < min {
			boundary = cur
			break
		}
		newer = cur
	}
	if boundary == nil {
		c.mu.Unlock()
		return res
	}
	// Migrate the boundary version's effect into the table space before
	// detaching, so fallback readers observe the same image.
	switch boundary.Op {
	case OpDelete:
		c.Rec.DropRecord()
		res.Dropped = true
	default:
		c.Rec.InstallImage(boundary.Payload)
		res.Migrated = true
	}
	// Detach the whole suffix starting at boundary.
	if newer == nil {
		c.head.Store(nil)
	} else {
		newer.older.Store(nil)
	}
	var freed int64
	for cur := boundary; cur != nil; cur = cur.Older() {
		if ok, drained := s.retire(cur); ok {
			res.Versions++
			freed += cur.Footprint()
			if drained {
				res.Groups++
			}
		}
	}
	c.length.Add(int32(-res.Versions))
	if c.head.Load() == nil {
		c.dead = true
		res.Emptied = true
		if !res.Dropped {
			c.Rec.SetVersioned(false)
		}
	}
	c.mu.Unlock()

	if res.Emptied {
		s.HT.add(s.HT.Remove(c))
	}
	s.live.Add(int64(-res.Versions))
	s.liveBytes.Add(-freed)
	s.reclaimed.Add(int64(res.Versions))
	if res.Migrated {
		s.migrated.Add(1)
	}
	return res
}

// ReclaimIntervals performs interval-based reclamation on one chain (§4.2
// step 4): with snaps the ascending active snapshot timestamps, every
// committed version whose visible interval contains no snapshot is unlinked —
// Algorithm 1's merge, run in place over the chain.
//
// Two safety bounds apply. The newest committed version is never touched
// (its interval extends to infinity). And only versions whose successor's
// CID is at or below bound are considered, where bound must be a commit
// timestamp captured atomically with snaps such that every snapshot
// registered afterwards has timestamp >= bound (the transaction manager's
// View provides exactly this). A version above the bound
// could still become visible to a snapshot acquired after snaps was
// collected — §4.2 step 2 bounds its group scan by max(S) for the same
// reason; using the commit timestamp collects strictly more while remaining
// safe, since no present or future snapshot can land below bound outside
// snaps.
//
// A version the merge keeps although its interval is closed is kept by the
// snapshots inside that interval. held, when non-nil, is told the smallest of
// them — LGN(cid, snaps), which Algorithm 1 has in hand — the first time the
// version is found held by it: the version remembers its holder, so examining
// the chain again while the holder lives reports nothing. No snapshot can
// join a closed interval at or below the bound, so the version stays exactly
// as it is until that holder leaves; that is what lets the incremental
// interval collector look at it again only then. held runs under the chain
// latch.
//
// Interval reclamation removes versions strictly in the middle of the
// committed history, so the chain never empties here and nothing migrates to
// the table space.
func (s *Space) ReclaimIntervals(c *Chain, snaps []ts.CID, bound ts.CID, held func(v *Version, by ts.CID)) ReclaimResult {
	var res ReclaimResult
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return res
	}
	// The committed versions at or below the bound, newest first: Definition
	// 1's T sequence, reversed. Everything older than a committed version is
	// committed, so they are a suffix of the chain.
	var buf [16]*Version
	vs := buf[:0]
	for cur := c.head.Load(); cur != nil; cur = cur.Older() {
		if cid := cur.CID(); cid != ts.Invalid && cid <= bound {
			vs = append(vs, cur)
		}
	}
	var freed int64
	j := 0
	for k := len(vs) - 1; k >= 1; k-- {
		v, newer := vs[k], vs[k-1]
		cid, succ := v.CID(), newer.CID()
		for j < len(snaps) && snaps[j] < cid {
			j++
		}
		if j < len(snaps) && snaps[j] < succ {
			// snaps[j] = LGN(cid, snaps) lies inside [cid, succ).
			if by := uint64(snaps[j]) + 1; held != nil && v.held.Swap(by) != by {
				held(v, snaps[j])
			}
			continue
		}
		// newer is still linked — the loop has not decided it yet — and v is
		// what it points at: nothing uncommitted or above the bound can sit
		// between two committed versions at or below it.
		newer.older.Store(v.Older())
		if ok, drained := s.retire(v); ok {
			res.Versions++
			freed += v.Footprint()
			if drained {
				res.Groups++
			}
		}
	}
	c.length.Add(int32(-res.Versions))
	c.mu.Unlock()
	s.live.Add(int64(-res.Versions))
	s.liveBytes.Add(-freed)
	s.reclaimed.Add(int64(res.Versions))
	return res
}

// ReclaimVersionIf unlinks a single committed version when decide approves
// the pair (version CID, successor CID), where the successor is the next
// newer committed version in the chain. Versions without a committed
// successor — the newest committed version — are never eligible, preserving
// the table-space fallback invariant. This is the primitive behind the
// group-interval collector, which batches the decision per
// (group, successor-group) subgroup.
func (s *Space) ReclaimVersionIf(v *Version, decide func(self, successor ts.CID) bool) ReclaimResult {
	var res ReclaimResult
	c := v.chain
	if c == nil || v.Reclaimed() {
		return res
	}
	c.mu.Lock()
	if c.dead || v.Reclaimed() || !v.Committed() {
		c.mu.Unlock()
		return res
	}
	// Find the closest committed version newer than v by walking from the
	// head; cur holds the candidate successor seen so far.
	var successor *Version
	for cur := c.head.Load(); cur != nil && cur != v; cur = cur.Older() {
		if cur.Committed() {
			successor = cur
		}
	}
	if successor == nil || !decide(v.CID(), successor.CID()) || !c.spliceOutLocked(v) {
		c.mu.Unlock()
		return res
	}
	if ok, drained := s.retire(v); ok {
		res.Versions = 1
		if drained {
			res.Groups = 1
		}
	}
	c.mu.Unlock()
	s.live.Add(int64(-res.Versions))
	s.liveBytes.Add(int64(-res.Versions) * v.Footprint())
	s.reclaimed.Add(int64(res.Versions))
	return res
}
