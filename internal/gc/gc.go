// Package gc implements the paper's garbage collector taxonomy (§3, Figure
// 3) and the HybridGC of §4.4:
//
//   - ST — single-version, timestamp-based: the conventional collector that
//     scans every version chain against the global minimum snapshot
//     timestamp.
//   - GT — group, timestamp-based: scans the ordered GroupCommitContext list
//     and reclaims whole groups below the minimum (§4.1).
//   - SI — single-version, interval-based: reclaims versions whose visible
//     interval contains no active snapshot timestamp, via the merge-based
//     Algorithm 1 (§3.1, §4.2).
//   - GI — group, interval-based: the immediate-successor-subgroup variant
//     the paper describes in §3.2 and leaves as future work; implemented
//     here as an extension.
//   - TG — table GC: the semantic optimization of §4.3 that moves long-lived
//     snapshots with known table scope to per-table trackers and reclaims
//     with per-table horizons.
//   - Hybrid — GT, TG and SI combined (§4.4): every pass runs GT first, then
//     TG, then SI.
//
// Where this package leaves the paper is in when and how much. The paper
// invokes the three collectors on independent periods and each invocation
// walks its whole window. Here a version is looked at when something about it
// changes. GT stops at the horizon, as in the paper. TG and SI are
// incremental: each visits the commit groups published since its last pass,
// TG goes back only for a table whose horizon has advanced and SI only for
// the versions a departed snapshot was keeping alive (tablegc.go,
// interval.go; the invariants are in DESIGN.md §15.5). A commit group counts
// its live versions and is unlinked by whichever collector reclaims the last
// one, so nobody walks the list looking for empty groups. And Hybrid's loop
// is woken by work — a batch of published versions, the release of the
// snapshot that held a batch back — with the configured periods left as the
// idle fallback (hybrid.go). ST and GI stay stateless full scans: they are
// the taxonomy's other two quadrants, not part of the loop.
package gc

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// RunStats reports what a single collector invocation accomplished.
type RunStats struct {
	Collector string
	// Versions is the number of record versions reclaimed.
	Versions int64
	// Groups is the number of GroupCommitContext objects removed.
	Groups int64
	// ChainsScanned counts version chains examined.
	ChainsScanned int64
	// ChainsEmptied counts chains removed from the RID hash table.
	ChainsEmptied int64
	// Migrated counts record images moved into the table space.
	Migrated int64
	// Dropped counts records deleted from the table space (migrated DELETEs).
	Dropped int64
	// SnapshotsScoped counts snapshots the table collector narrowed to their
	// tables or partitions during this run.
	SnapshotsScoped int64
	// Horizon is the reclamation horizon the run used (collector-specific).
	Horizon ts.CID
	// Duration is the wall time of the run.
	Duration time.Duration
}

// add folds another run into the receiver.
func (r *RunStats) add(o RunStats) {
	r.Versions += o.Versions
	r.Groups += o.Groups
	r.ChainsScanned += o.ChainsScanned
	r.ChainsEmptied += o.ChainsEmptied
	r.Migrated += o.Migrated
	r.Dropped += o.Dropped
	r.SnapshotsScoped += o.SnapshotsScoped
	r.Duration += o.Duration
}

// absorb folds one chain-level reclamation into the receiver.
func (r *RunStats) absorb(res mvcc.ReclaimResult) {
	r.Versions += int64(res.Versions)
	r.Groups += int64(res.Groups)
	if res.Migrated {
		r.Migrated++
	}
	if res.Dropped {
		r.Dropped++
	}
	if res.Emptied {
		r.ChainsEmptied++
	}
}

// String implements fmt.Stringer.
func (r RunStats) String() string {
	return fmt.Sprintf("%s: versions=%d groups=%d chains=%d emptied=%d migrated=%d dropped=%d scoped=%d horizon=%d in %v",
		r.Collector, r.Versions, r.Groups, r.ChainsScanned, r.ChainsEmptied,
		r.Migrated, r.Dropped, r.SnapshotsScoped, r.Horizon, r.Duration)
}

// Collector is one garbage collection strategy. Collect performs a full
// identification-and-reclamation pass and returns what it did; collectors
// are safe for use by one invoker at a time (the Hybrid scheduler
// serializes them).
type Collector interface {
	Name() string
	Collect() RunStats
}

// Totals accumulates per-collector lifetime counters, the data behind
// Figure 11 (accumulated versions reclaimed per collector under HG).
type Totals struct {
	versions atomic.Int64
	runs     atomic.Int64
}

// Versions returns the lifetime reclaimed-version count.
func (t *Totals) Versions() int64 { return t.versions.Load() }

// Runs returns the lifetime invocation count.
func (t *Totals) Runs() int64 { return t.runs.Load() }

func (t *Totals) record(r RunStats) {
	t.versions.Add(r.Versions)
	t.runs.Add(1)
}
