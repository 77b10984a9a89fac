package gc

import (
	"fmt"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/txn"
)

// Regions quantifies Figure 9's partitioning of the version space by which
// HybridGC member can reclaim each part:
//
//   - A — versions in commit groups below the union minimum snapshot
//     timestamp: the global group collector reclaims these at once;
//   - B — versions between the union minimum and the global tracker's
//     minimum: pinned only by table-/partition-scoped snapshots, the table
//     collector's region;
//   - C — versions at or above the global tracker's minimum: only the
//     interval collector can find garbage here.
type Regions struct {
	A int64
	B int64
	C int64
	// UnionMin and GlobalMin are the two horizons that delimit the regions.
	UnionMin  uint64
	GlobalMin uint64
}

// Total returns the live versions accounted across regions.
func (r Regions) Total() int64 { return r.A + r.B + r.C }

// String implements fmt.Stringer.
func (r Regions) String() string {
	return fmt.Sprintf("A(GT)=%d B(TG)=%d C(SI)=%d [unionMin=%d globalMin=%d]",
		r.A, r.B, r.C, r.UnionMin, r.GlobalMin)
}

// CurrentRegions walks the commit-group list and classifies every live
// version into its Figure 9 region. It is a diagnostic: the scan takes the
// same locks the collectors take and is priced accordingly.
func CurrentRegions(m *txn.Manager) Regions {
	view := m.View()
	unionMin, globalMin := view.Horizon(), view.UnscopedHorizon()
	r := Regions{UnionMin: uint64(unionMin), GlobalMin: uint64(globalMin)}
	m.Space().Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		live := g.Live()
		switch {
		case cid < unionMin:
			r.A += live
		case cid < globalMin:
			r.B += live
		default:
			r.C += live
		}
		return true
	})
	return r
}
