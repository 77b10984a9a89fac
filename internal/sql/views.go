package sql

import (
	"sort"
	"strings"

	"hybridgc/internal/gc"
	"hybridgc/internal/txn"
)

// Monitoring views. The paper's Figure 2 is a screenshot of the "HANA
// system load view" plotting Active Versions, the Active Commit ID Range
// and Used Memory; HANA exposes such state through M_* monitoring views.
// These virtual tables provide the same observability through SQL:
//
//	m_version_space (metric TEXT, value INT)   — version/GC counters
//	m_snapshots     (kind TEXT, timestamp INT, age_us INT, scoped INT)
//	m_gc            (collector TEXT, reclaimed INT, runs INT)
//	m_tables        (name TEXT, id INT, partitions INT)
//	m_shards        (shard INT, versions_live INT, current_cid INT,
//	                 horizon INT, snapshots INT)
//
// On a sharded engine the counter views aggregate across shards; m_shards
// breaks the population out per shard, horizons and all.
//
// Views are read-only; SELECT (including WHERE/ORDER BY/LIMIT/COUNT/SUM)
// works on them, DML does not.

// viewBuilder materializes one view.
type viewBuilder func(s *Session) [][]Datum

// view pairs a schema with its builder.
type view struct {
	info  *TableInfo
	build viewBuilder
}

// views is the registry of monitoring views, keyed by lower-case name.
var views = map[string]view{
	"m_version_space": {
		info: viewInfo("m_version_space", []ColumnDef{
			{Name: "metric", Type: TText}, {Name: "value", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			st := s.eng.Stats()
			metrics := []struct {
				name string
				v    int64
			}{
				{"versions_live", st.VersionsLive},
				{"versions_live_bytes", st.VersionsLiveBytes},
				{"versions_created", st.VersionsCreated},
				{"versions_reclaimed", st.VersionsReclaimed},
				{"versions_migrated", st.VersionsMigrated},
				{"versions_traversed", st.VersionsTraversed},
				{"hash_chains", st.Hash.Chains},
				{"hash_buckets", int64(st.Hash.Buckets)},
				{"hash_collision_ratio_x100", int64(st.Hash.CollisionRatio * 100)},
				{"active_snapshots", int64(st.ActiveSnapshots)},
				{"current_cid", int64(st.CurrentCID)},
				{"global_horizon", int64(st.GlobalHorizon)},
				{"active_cid_range", int64(st.ActiveCIDRange)},
				{"group_list_len", int64(st.GroupListLen)},
				{"statements", st.Statements},
				{"txns_committed", st.Txn.TxnsCommitted},
				{"txns_aborted", st.Txn.TxnsAborted},
				{"groups_committed", st.Txn.GroupsCommitted},
			}
			rows := make([][]Datum, 0, len(metrics))
			for _, m := range metrics {
				rows = append(rows, []Datum{TextD(m.name), IntD(m.v)})
			}
			return rows
		},
	},
	// A statement's age_us is its transaction's age since its first
	// statement: a Stmt-SI transaction re-arms one statement snapshot, which
	// keeps the start of the first.
	"m_snapshots": {
		info: viewInfo("m_snapshots", []ColumnDef{
			{Name: "kind", Type: TText}, {Name: "timestamp", Type: TInt},
			{Name: "age_us", Type: TInt}, {Name: "scoped", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			var snaps []*txn.Snapshot
			for i := 0; i < s.eng.Shards(); i++ {
				s.eng.Shard(i).Manager().View().Snapshots(func(sn *txn.Snapshot) { snaps = append(snaps, sn) })
			}
			sort.Slice(snaps, func(i, j int) bool { return snaps[i].TS() < snaps[j].TS() })
			rows := make([][]Datum, 0, len(snaps))
			for _, sn := range snaps {
				scoped := int64(0)
				if sn.Scoped() {
					scoped = 1
				}
				rows = append(rows, []Datum{
					TextD(sn.Kind().String()),
					IntD(int64(sn.TS())),
					IntD(sn.Age().Microseconds()),
					IntD(scoped),
				})
			}
			return rows
		},
	},
	"m_gc": {
		info: viewInfo("m_gc", []ColumnDef{
			{Name: "collector", Type: TText}, {Name: "reclaimed", Type: TInt},
			{Name: "runs", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			var gt, tg, si [2]int64
			for i := 0; i < s.eng.Shards(); i++ {
				h := s.eng.Shard(i).GC()
				gt[0] += h.GT.Totals.Versions()
				gt[1] += h.GT.Totals.Runs()
				tg[0] += h.TG.Totals.Versions()
				tg[1] += h.TG.Totals.Runs()
				si[0] += h.SI.Totals.Versions()
				si[1] += h.SI.Totals.Runs()
			}
			return [][]Datum{
				{TextD("GT"), IntD(gt[0]), IntD(gt[1])},
				{TextD("TG"), IntD(tg[0]), IntD(tg[1])},
				{TextD("SI"), IntD(si[0]), IntD(si[1])},
			}
		},
	},
	"m_gc_regions": {
		info: viewInfo("m_gc_regions", []ColumnDef{
			{Name: "region", Type: TText}, {Name: "versions", Type: TInt},
			{Name: "collector", Type: TText}}),
		build: func(s *Session) [][]Datum {
			var a, b, c int64
			for i := 0; i < s.eng.Shards(); i++ {
				r := gc.CurrentRegions(s.eng.Shard(i).Manager())
				a += r.A
				b += r.B
				c += r.C
			}
			return [][]Datum{
				{TextD("A"), IntD(a), TextD("GT")},
				{TextD("B"), IntD(b), TextD("TG")},
				{TextD("C"), IntD(c), TextD("SI")},
			}
		},
	},
	"m_tables": {
		info: viewInfo("m_tables", []ColumnDef{
			{Name: "name", Type: TText}, {Name: "id", Type: TInt},
			{Name: "partitions", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			tables := s.cat.Tables()
			sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })
			rows := make([][]Datum, 0, len(tables))
			for _, t := range tables {
				parts := int64(s.eng.TablePartitions(t.ID))
				rows = append(rows, []Datum{TextD(t.Name), IntD(int64(t.ID)), IntD(parts)})
			}
			return rows
		},
	},
	"m_shards": {
		info: viewInfo("m_shards", []ColumnDef{
			{Name: "shard", Type: TInt}, {Name: "versions_live", Type: TInt},
			{Name: "current_cid", Type: TInt}, {Name: "horizon", Type: TInt},
			{Name: "snapshots", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			rows := make([][]Datum, 0, s.eng.Shards())
			for i := 0; i < s.eng.Shards(); i++ {
				st := s.eng.Shard(i).Stats()
				rows = append(rows, []Datum{
					IntD(int64(i)),
					IntD(st.VersionsLive),
					IntD(int64(st.CurrentCID)),
					IntD(int64(st.GlobalHorizon)),
					IntD(int64(st.ActiveSnapshots)),
				})
			}
			return rows
		},
	},
}

func viewInfo(name string, cols []ColumnDef) *TableInfo {
	return newTableInfo(name, 0, cols)
}

// lookupView resolves a monitoring view by (case-insensitive) name.
func lookupView(name string) (view, bool) {
	v, ok := views[strings.ToLower(name)]
	return v, ok
}
