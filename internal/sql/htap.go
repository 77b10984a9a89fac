package sql

// HTAP lane integration: a catalog-attached htap.Manager serves eligible
// aggregate SELECTs (COUNT/SUM/MIN/MAX, optional GROUP BY, no WHERE)
// straight from dictionary-encoded column chunks, with MVCC row reads
// covering the un-migrated delta tail. The conventional statement form is
//
//	SELECT SUM(amount) /* aggregate */ FROM facts GROUP BY region
//
// (the comment is an ordinary hint, skipped by the lexer — eligibility is
// decided structurally). Explicit transactions always take the row path:
// their statements must observe the transaction's own uncommitted writes
// and, under Trans-SI, the transaction snapshot, neither of which the lane
// serves.

import (
	"fmt"
	"sort"
	"strings"

	"hybridgc/internal/colstore"
	"hybridgc/internal/engine"
	"hybridgc/internal/htap"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// AttachHTAP wires the column-lane manager into the catalog and re-enables
// every lane the lane table lists; sessions then route eligible aggregates
// through it, and EnableHTAP can arm new tables. A nil manager detaches.
func (c *Catalog) AttachHTAP(m *htap.Manager) error {
	c.mu.Lock()
	c.htap = m
	c.mu.Unlock()
	if m == nil {
		return nil
	}
	names, err := c.Lanes()
	if err != nil {
		return err
	}
	for _, name := range names {
		t, err := c.Table(name)
		if err != nil {
			return fmt.Errorf("sql: %s lists %s: %w", laneTable, name, err)
		}
		if err := m.EnableTable(t.ID, laneSchema(t.Columns)); err != nil {
			return err
		}
	}
	return nil
}

// HTAP returns the attached column-lane manager, or nil.
func (c *Catalog) HTAP() *htap.Manager {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.htap
}

// EnableHTAP enables the column lane for a SQL table on every shard and, in
// one transaction, adds the table's row to the lane table unless it is
// listed already.
func (c *Catalog) EnableHTAP(table string) error {
	m := c.HTAP()
	if m == nil {
		return fmt.Errorf("sql: no HTAP lane manager attached")
	}
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	if err := m.EnableTable(t.ID, laneSchema(t.Columns)); err != nil {
		return err
	}
	id, err := c.laneTableID()
	if err != nil {
		return err
	}
	return c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		listed := false
		err := tx.Scan(id, func(_ ts.RID, img []byte) bool {
			listed = string(img) == t.Name
			return !listed
		})
		if err != nil || listed {
			return err
		}
		_, err = tx.Insert(id, []byte(t.Name))
		return err
	})
}

// laneTableID returns the lane table's ID, creating the table on first use.
func (c *Catalog) laneTableID() (ts.TableID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id := c.eng.TableID(laneTable); id != 0 {
		return id, nil
	}
	return c.eng.CreateTable(laneTable)
}

// Lanes lists the SQL tables the lane table names.
func (c *Catalog) Lanes() ([]string, error) {
	id := c.eng.TableID(laneTable)
	if id == 0 {
		return nil, nil // no lane was ever enabled
	}
	var names []string
	err := c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		names = names[:0]
		return tx.Scan(id, func(_ ts.RID, img []byte) bool {
			names = append(names, string(img))
			return true
		})
	})
	return names, err
}

// laneSchema is the table's schema with the column names lower-cased, as the
// parser normalizes the names an aggregate refers to.
func laneSchema(cols []ColumnDef) colstore.Schema {
	sch := make(colstore.Schema, len(cols))
	for i, c := range cols {
		sch[i] = ColumnDef{Name: strings.ToLower(c.Name), Type: c.Type}
	}
	return sch
}

var aggOps = map[string]htap.AggOp{
	"COUNT": htap.AggCount,
	"SUM":   htap.AggSum,
	"MIN":   htap.AggMin,
	"MAX":   htap.AggMax,
}

// laneAggregate serves an eligible aggregate SELECT from the column lane.
// ok reports whether the lane took the query; on false the caller falls
// back to the row path.
func (s *Session) laneAggregate(t *TableInfo, st *SelectStmt) (*Result, bool, error) {
	if st.Aggregate == "" || s.tx != nil ||
		len(st.Where) != 0 || st.Order != nil || st.Limit != 0 {
		return nil, false, nil
	}
	m := s.cat.HTAP()
	if m == nil || !m.Enabled(t.ID) {
		return nil, false, nil
	}
	op := aggOps[st.Aggregate]
	res, err := m.Aggregate(t.ID, htap.AggSpec{Op: op, Col: st.AggColumn, GroupBy: st.GroupBy})
	if err != nil {
		return nil, true, err
	}
	aggName := strings.ToLower(st.Aggregate)
	if st.GroupBy == "" {
		return &Result{
			Columns: []string{aggName},
			Rows:    [][]Datum{{IntD(res.Groups[0].Result(op))}},
		}, true, nil
	}
	out := &Result{Columns: []string{st.GroupBy, aggName}}
	for _, g := range res.Groups {
		out.Rows = append(out.Rows, []Datum{g.Key, IntD(g.Result(op))})
	}
	return out, true, nil
}

func init() {
	// m_htap surfaces per-table lane state: columnar coverage, migrator
	// lag, the dirty set, and the delta tail — the counters the HTAP
	// experiments plot with the lane on versus off.
	views["m_htap"] = view{
		info: viewInfo("m_htap", []ColumnDef{
			{Name: "name", Type: TText}, {Name: "id", Type: TInt},
			{Name: "chunks", Type: TInt}, {Name: "chunk_rows", Type: TInt},
			{Name: "delta_rows", Type: TInt}, {Name: "dirty_rows", Type: TInt},
			{Name: "migrated_rows", Type: TInt}, {Name: "watermark", Type: TInt},
			{Name: "lag", Type: TInt}, {Name: "passes", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			m := s.cat.HTAP()
			if m == nil {
				return nil
			}
			stats := m.Stats()
			sort.Slice(stats, func(i, j int) bool { return stats[i].Table < stats[j].Table })
			rows := make([][]Datum, 0, len(stats))
			for _, ls := range stats {
				rows = append(rows, []Datum{
					TextD(ls.Name), IntD(int64(ls.Table)),
					IntD(int64(ls.Chunks)), IntD(ls.ChunkRows),
					IntD(ls.DeltaRows), IntD(ls.DirtyRows),
					IntD(ls.MigratedRows), IntD(int64(ls.Watermark)),
					IntD(int64(ls.Lag)), IntD(ls.Passes),
				})
			}
			return rows
		},
	}
}
