package shard

import (
	"fmt"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/fault"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// Failpoints covering the two-phase-commit windows, one per durability step.
// Every failure inside the protocol window is treated as crash-equivalent:
// the shards holding unsettled durable state latch fail-stop with the cause,
// nothing cleans up the log, and the next Open settles the transaction from
// the coordinator's decision (or its absence — presumed abort). The crash
// matrix proves each window recovers all-or-nothing.
var (
	// FPPrepare fires after a participant's prepare record is appended: some
	// participants hold durable prepares, no decision exists. Recovery must
	// abort everywhere.
	FPPrepare = fault.Declare("shard/prepare", "after appending a participant's prepare record")
	// FPDecision fires before the coordinator's decision record: every
	// participant is prepared, the decision never became durable. Recovery
	// must abort everywhere (presumed abort).
	FPDecision = fault.Declare("shard/decision", "before appending the coordinator's decision record")
	// FPApply fires after the decision is durable, before any participant
	// publishes. Recovery must commit everywhere.
	FPApply = fault.Declare("shard/apply", "after the commit decision is durable, before participants publish")
	// FPResolve fires after a participant publishes, before its resolve
	// record: its versions are live in memory but its log still says in
	// doubt. Recovery must commit everywhere.
	FPResolve = fault.Declare("shard/resolve", "after publish, before appending a participant's resolve record")
)

// clusterTx is a routed transaction: per-shard participant transactions open
// lazily as operations touch their shards, record IDs translate through the
// table placements, and commit picks the single-shard fast path or two-phase
// commit by the number of writing participants.
//
// Isolation is per shard: each participant holds its own snapshot on its own
// shard, so cross-shard reads do not observe one cluster-wide consistent
// point. Single-shard transactions (the fast path, and everything a pinned
// BeginShard transaction can do) keep exact snapshot isolation.
type clusterTx struct {
	c        *Cluster
	iso      txn.Isolation
	declared []ts.TableID

	// pinned is the BeginShard target, -1 for a routed transaction.
	pinned int
	// anchor is the replicated-table read target: the pinned shard, or the
	// first shard a routed transaction touched (-1 until then, 0 by default).
	anchor int

	parts []*core.Tx // indexed by shard, nil until opened
	done  bool
}

// part returns the participant transaction on shard s, opening it lazily.
func (tx *clusterTx) part(s int) (*core.Tx, error) {
	if s < 0 || s >= len(tx.c.shards) {
		return nil, fmt.Errorf("%w: %d of %d", ErrShardRange, s, len(tx.c.shards))
	}
	if tx.pinned >= 0 && s != tx.pinned {
		return nil, fmt.Errorf("%w: shard %d, pinned to %d", ErrCrossShard, s, tx.pinned)
	}
	if tx.parts == nil {
		tx.parts = make([]*core.Tx, len(tx.c.shards))
	}
	if tx.parts[s] == nil {
		tx.parts[s] = tx.c.shards[s].Begin(tx.iso, tx.declared...)
		if tx.anchor < 0 {
			tx.anchor = s
		}
	}
	return tx.parts[s], nil
}

// anchorShard is the shard replicated-table reads use.
func (tx *clusterTx) anchorShard() int {
	if tx.pinned >= 0 {
		return tx.pinned
	}
	if tx.anchor >= 0 {
		return tx.anchor
	}
	return 0
}

func (tx *clusterTx) Isolation() txn.Isolation { return tx.iso }

func (tx *clusterTx) SnapshotTS() ts.CID {
	p, err := tx.part(tx.anchorShard())
	if err != nil {
		return 0
	}
	return p.SnapshotTS()
}

func (tx *clusterTx) Get(tid ts.TableID, rid ts.RID) ([]byte, error) {
	tp := tx.c.placement(tid)
	s, l := tx.anchorShard(), rid
	if tp.p.Kind != engine.PlaceReplicated {
		s, l = tp.p.LocalRID(rid, len(tx.c.shards))
	}
	p, err := tx.part(s)
	if err != nil {
		return nil, err
	}
	return p.Get(tid, l)
}

// Scan visits every visible record, shard-major: all of shard 0's records
// (in local RID order, reported as global RIDs), then shard 1's, and so on —
// not global RID order.
func (tx *clusterTx) Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error {
	tp := tx.c.placement(tid)
	n := len(tx.c.shards)
	switch tp.p.Kind {
	case engine.PlaceReplicated:
		p, err := tx.part(tx.anchorShard())
		if err != nil {
			return err
		}
		return p.Scan(tid, fn)
	}
	stopped := false
	for s := 0; s < n && !stopped; s++ {
		if tx.pinned >= 0 && s != tx.pinned {
			return fmt.Errorf("%w: scanning interleaved table %d needs every shard", ErrCrossShard, tid)
		}
		p, err := tx.part(s)
		if err != nil {
			return err
		}
		err = p.Scan(tid, func(l ts.RID, img []byte) bool {
			if !fn(tp.p.GlobalRID(s, n, l), img) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (tx *clusterTx) Insert(tid ts.TableID, img []byte) (ts.RID, error) {
	return tx.insert(tid, img, -1)
}

// InsertAt is Insert with a shard hint: interleaved tables place the record
// on hint mod shards; other placements ignore it.
func (tx *clusterTx) InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	return tx.insert(tid, img, hint)
}

func (tx *clusterTx) insert(tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	tp := tx.c.placement(tid)
	n := len(tx.c.shards)
	if tp.p.Kind == engine.PlaceReplicated {
		return tx.insertReplicated(tid, img)
	}
	var s int
	switch {
	case hint >= 0:
		s = hint % n
	case tx.pinned >= 0:
		s = tx.pinned
	default:
		// Unhinted: spread in placement-sized blocks so a sequential load
		// produces the dense global RID sequence a single node would assign.
		size := tp.p.Size
		if size == 0 {
			size = 1
		}
		c := tp.ctr.Add(1) - 1
		s = int((c / size) % uint64(n))
	}
	p, err := tx.part(s)
	if err != nil {
		return 0, err
	}
	l, err := p.Insert(tid, img)
	if err != nil {
		return 0, err
	}
	return tp.p.GlobalRID(s, n, l), nil
}

// insertReplicated writes the record to every shard; the local RIDs must
// agree (replicated tables are loaded by one writer in one order), and the
// shared value is the global RID.
func (tx *clusterTx) insertReplicated(tid ts.TableID, img []byte) (ts.RID, error) {
	var rid ts.RID
	for s := range tx.c.shards {
		p, err := tx.part(s)
		if err != nil {
			return 0, err
		}
		l, err := p.Insert(tid, img)
		if err != nil {
			return 0, err
		}
		if s == 0 {
			rid = l
		} else if l != rid {
			return 0, fmt.Errorf("shard: replicated table %d diverged: shard %d assigned RID %d, shard 0 assigned %d",
				tid, s, l, rid)
		}
	}
	return rid, nil
}

func (tx *clusterTx) Update(tid ts.TableID, rid ts.RID, img []byte) error {
	return tx.write(tid, rid, func(p *core.Tx, l ts.RID) error { return p.Update(tid, l, img) })
}

func (tx *clusterTx) Delete(tid ts.TableID, rid ts.RID) error {
	return tx.write(tid, rid, func(p *core.Tx, l ts.RID) error { return p.Delete(tid, l) })
}

func (tx *clusterTx) write(tid ts.TableID, rid ts.RID, op func(p *core.Tx, l ts.RID) error) error {
	tp := tx.c.placement(tid)
	if tp.p.Kind == engine.PlaceReplicated {
		// Replicated writes touch every copy — inherently cross-shard.
		for s := range tx.c.shards {
			p, err := tx.part(s)
			if err != nil {
				return err
			}
			if err := op(p, rid); err != nil {
				return err
			}
		}
		return nil
	}
	s, l := tp.p.LocalRID(rid, len(tx.c.shards))
	p, err := tx.part(s)
	if err != nil {
		return err
	}
	return op(p, l)
}

func (tx *clusterTx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	for _, p := range tx.parts {
		if p != nil {
			p.Abort()
		}
	}
}

// participant is one shard's open transaction at commit time.
type participant struct {
	shard int
	tx    *core.Tx
	ops   []wal.Op // pending write set; nil for read-only participants
}

// Commit finishes the transaction. With at most one writing participant this
// is the single-shard fast path: each participant commits through its own
// shard's group committer, exactly as on an unsharded engine. With several
// writers it runs two-phase commit under the cluster's checkpoint gate.
func (tx *clusterTx) Commit() error {
	if tx.done {
		return fmt.Errorf("shard: transaction finished")
	}
	tx.done = true
	var parts []participant
	writers := 0
	for s, p := range tx.parts {
		if p == nil {
			continue
		}
		ops := p.PendingOps()
		if len(ops) > 0 {
			writers++
		} else {
			ops = nil
		}
		parts = append(parts, participant{shard: s, tx: p, ops: ops})
	}
	if writers <= 1 {
		return commitLocal(parts)
	}
	return tx.c.commit2PC(parts)
}

// commitLocal commits each participant through its own shard — the fast
// path. The writer (if any) goes first so a failure aborts before any
// read-only participant is finished.
func commitLocal(parts []participant) error {
	for _, p := range parts {
		if p.ops == nil {
			continue
		}
		if err := p.tx.Commit(); err != nil {
			for _, q := range parts {
				if q.ops == nil {
					q.tx.Abort()
				}
			}
			return err
		}
	}
	for _, p := range parts {
		if p.ops == nil {
			p.tx.Abort() // read-only: abort and commit are equivalent
		}
	}
	return nil
}

// commit2PC runs the minimal two-phase commit. Shard 0 is the coordinator:
// its log carries the decision record that recovery consults. The gate is
// held shared for the whole window so no shard checkpoints (and prunes log
// segments) between a prepare and its resolve.
//
// Failure handling is crash-equivalent: any error after the first prepare
// append latches the shards holding unsettled durable state into fail-stop,
// aborts the in-memory transactions, and leaves settlement to the next Open —
// which commits everywhere or aborts everywhere from the decision log.
func (c *Cluster) commit2PC(parts []participant) error {
	xid := c.xid.Add(1)
	c.gate.RLock()
	defer c.gate.RUnlock()

	abortMemory := func() {
		for _, p := range parts {
			p.tx.Abort()
		}
	}
	failPrepared := func(upto int, cause error) {
		for _, p := range parts[:upto] {
			if p.ops != nil {
				c.shards[p.shard].EnterFailStop(cause)
			}
		}
		abortMemory()
	}

	// Phase 1: every writer's write set becomes durable in its own log.
	for i, p := range parts {
		if p.ops == nil {
			continue
		}
		if err := c.shards[p.shard].AppendPrepare(xid, p.ops); err != nil {
			failPrepared(i+1, err)
			return fmt.Errorf("shard %d: prepare xid %d: %w", p.shard, xid, err)
		}
		if err := fault.Hit(FPPrepare); err != nil {
			failPrepared(i+1, err)
			return err
		}
	}

	// Decision: one record on the coordinator. Until it is durable the
	// outcome is abort (presumed abort); after it, commit — everywhere.
	if err := fault.Hit(FPDecision); err != nil {
		failPrepared(len(parts), err)
		c.shards[0].EnterFailStop(err)
		return err
	}
	if err := c.shards[0].AppendDecision(xid, true); err != nil {
		failPrepared(len(parts), err)
		c.shards[0].EnterFailStop(err)
		return fmt.Errorf("shard 0: decision xid %d: %w", xid, err)
	}

	// Phase 2: publish each write set through its shard's group committer
	// with logging skipped (the prepare already made it durable), then settle
	// with a resolve record carrying the publish CID.
	if err := fault.Hit(FPApply); err != nil {
		failPrepared(len(parts), err)
		return err
	}
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range parts {
		if p.ops == nil {
			p.tx.Abort() // read-only participant
			continue
		}
		p.tx.MarkPrepared()
		cid, err := p.tx.CommitCID()
		if err != nil {
			c.shards[p.shard].EnterFailStop(err)
			note(fmt.Errorf("shard %d: publish xid %d: %w", p.shard, xid, err))
			continue
		}
		if err := fault.Hit(FPResolve); err != nil {
			c.shards[p.shard].EnterFailStop(err)
			note(err)
			continue
		}
		if err := c.shards[p.shard].AppendResolve(xid, true, cid); err != nil {
			c.shards[p.shard].EnterFailStop(err)
			note(fmt.Errorf("shard %d: resolve xid %d: %w", p.shard, xid, err))
		}
	}
	return firstErr
}
