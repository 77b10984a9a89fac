// Package repl is WAL-shipping replication with a cluster-wide GC horizon.
//
// The primary runs a Source: each replica's OpReplStream request hijacks its
// server connection, bootstraps from a checkpoint (or resumes from an LSN),
// then ships what one wal.Cursor yields — the segment files from that LSN to
// the head, and on as the log grows. The replica runs a Replica: it replays
// the stream into a read-only engine through the core.Apply* path —
// versioned, at the primary's CIDs — so local snapshot readers keep full
// isolation while the stream advances.
//
// Replication extends the paper's central quantity — the global minimum
// snapshot timestamp that gates every garbage collector — across the
// cluster: each replica periodically reports its applied LSN and its oldest
// open snapshot, and the Source pins that snapshot timestamp in the
// primary's snapshot-timestamp registry. Interval GC, table GC and the
// hybrid collector then respect remote readers exactly as they respect
// local ones, with no changes of their own. The same reports drive WAL
// segment retention (checkpoints never prune segments a replica still
// needs) and a lag bound: a replica too far behind is demoted — its pin and
// segment floor are dropped so one stuck follower cannot pin the primary's
// version space and log forever — and must re-bootstrap from a fresh
// checkpoint.
package repl

import (
	"errors"

	"hybridgc/internal/fault"
)

// Failpoints for fault-injection tests (see internal/fault).
var (
	// FPStreamDrop fires on the primary's heartbeat tick: the stream is torn
	// down abruptly — no RmEnd — as if the network died mid-stream.
	FPStreamDrop = fault.Declare("repl/stream-drop", "drop a replication stream without an end message")
	// FPPartialSegment fires before each record is shipped, aborting the
	// stream mid-segment — the replica is left with a prefix and must resume
	// from its applied LSN.
	FPPartialSegment = fault.Declare("repl/partial-segment", "abort segment catch-up partway through")
	// FPApplyStall fires in the replica's apply loop before each record —
	// with a Sleep option it models a stalled applier that falls behind the
	// lag bound; with ReturnErr it kills the apply loop.
	FPApplyStall = fault.Declare("repl/apply-stall", "before applying a replicated record")
	// FPPinLeak disables the horizon-pin release on detach and demotion —
	// a deliberately reverted hardening. The chaos harness's GC-liveness
	// invariant must catch the regression: a dead replica's pin then holds
	// the cluster-wide GC horizon forever. Exists only so tests can prove
	// the harness detects the class of bug it was built for.
	FPPinLeak = fault.Declare("repl/pin-leak", "skip horizon-pin release on detach/demote")
)

// ErrBootstrapRequired reports that the replica cannot continue from its
// current state: the primary demoted it (lag bound) or no longer retains
// the segments its applied LSN needs. The caller must discard the replica's
// engine, open a fresh (empty, read-only) one, and run a new Replica over
// it — bootstrap re-ships the checkpoint.
var ErrBootstrapRequired = errors.New("repl: replica must re-bootstrap from a checkpoint")
