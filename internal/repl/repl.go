// Package repl is WAL-shipping replication.
//
// The primary runs a Source: each replica's OpReplStream request hijacks its
// server connection, bootstraps from a checkpoint (or resumes from an LSN),
// then ships what one wal.Cursor yields — the segment files from that LSN to
// the head, and on as the log grows. The replica runs a Replica: it replays
// the stream into a read-only engine through the core.Apply* path —
// versioned, at the primary's CIDs — so local snapshot readers keep full
// isolation while the stream advances.
//
// A replica's snapshots read only its own engine, and that engine's own
// hybrid collector is what keeps their versions: the paper's safety rule
// (Def. 1) is per version space, and the primary's versions are not the ones
// a replica reader reads. So nothing about them crosses the wire, and a long
// cursor on a replica holds nothing on the primary. What the primary does
// keep for a replica is log: each replica periodically reports its applied
// LSN, which drives WAL segment retention (checkpoints never prune segments
// a replica still needs) and a lag bound — a replica too far behind is
// demoted, its segment floor dropped so one stuck follower cannot pin the
// primary's log forever, and must re-bootstrap from a fresh checkpoint.
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
	// FPPartialSegment fires before each run is shipped, aborting the
	// stream mid-segment — the replica is left with a prefix and must resume
	// from its applied LSN.
	FPPartialSegment = fault.Declare("repl/partial-segment", "abort segment catch-up partway through")
	// FPApplyStall fires in the replica's apply loop before each record —
	// with a Sleep option it models a stalled applier that falls behind the
	// lag bound; with ReturnErr it kills the apply loop.
	FPApplyStall = fault.Declare("repl/apply-stall", "before applying a replicated record")
	// FPFloorLeak skips the segment-floor drop on demotion — a deliberately
	// reverted hardening. The chaos harness's demotion invariant must catch
	// the regression: a dead replica's floor then holds the primary's log
	// forever. Exists only so tests can prove the harness detects the class
	// of bug it was built for.
	FPFloorLeak = fault.Declare("repl/floor-leak", "skip the segment-floor drop on demotion")
)

// ErrBootstrapRequired reports that the replica cannot continue from its
// current state: the primary demoted it (lag bound) or no longer retains
// the segments its applied LSN needs. The caller must discard the replica's
// engine, open a fresh (empty, read-only) one, and run a new Replica over
// it — bootstrap re-ships the checkpoint.
var ErrBootstrapRequired = errors.New("repl: replica must re-bootstrap from a checkpoint")

// errPrimaryDraining ends a stream whose primary shut down (RmEnd, EndDrain).
var errPrimaryDraining = errors.New("repl: primary draining")
