package htap

// Manager runs the column lane over a whole engine: one Store per shard,
// each with its own background migrator (per-shard migrators are
// independent — a slow shard's lane lags without stalling the others), and
// a fan-out aggregate that merges per-shard partials. All four accumulators
// (COUNT/SUM/MIN/MAX, grouped or not) are associative, so the cross-shard
// merge is exact.

import (
	"sync"

	"hybridgc/internal/colstore"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
)

// Manager is the engine-level lane front end.
type Manager struct {
	eng    engine.Engine
	stores []*Store
}

// NewManager builds one Store per shard (re-enabling any lanes the shards
// recovered from their logs). The background migrators start with Start.
func NewManager(eng engine.Engine, cfg Config) (*Manager, error) {
	m := &Manager{eng: eng}
	for i := 0; i < eng.Shards(); i++ {
		st, err := NewStore(eng.Shard(i), cfg)
		if err != nil {
			for _, prev := range m.stores {
				prev.Stop()
			}
			return nil, err
		}
		m.stores = append(m.stores, st)
	}
	return m, nil
}

// Start launches every shard's background migrator; Stop halts them.
func (m *Manager) Start() {
	for _, st := range m.stores {
		st.Start()
	}
}

// Stop halts all background migrators and waits for in-flight passes.
func (m *Manager) Stop() {
	for _, st := range m.stores {
		st.Stop()
	}
}

// Shards returns the number of per-shard stores.
func (m *Manager) Shards() int { return len(m.stores) }

// Store returns shard i's lane store.
func (m *Manager) Store(i int) *Store { return m.stores[i] }

// EnableTable enables the lane for a table on every shard.
func (m *Manager) EnableTable(tid ts.TableID, schema colstore.Schema) error {
	for _, st := range m.stores {
		if err := st.EnableTable(tid, schema); err != nil {
			return err
		}
	}
	return nil
}

// Enabled reports whether the table has a lane (on shard 0 — EnableTable
// is all-shards, so the shards agree).
func (m *Manager) Enabled(tid ts.TableID) bool {
	return len(m.stores) > 0 && m.stores[0].Enabled(tid)
}

// Schema returns the lane schema for a table, if enabled.
func (m *Manager) Schema(tid ts.TableID) (colstore.Schema, bool) {
	if len(m.stores) == 0 {
		return colstore.Schema{}, false
	}
	l := m.stores[0].lane(tid)
	if l == nil {
		return colstore.Schema{}, false
	}
	return l.schema, true
}

// Migrate runs one synchronous migration pass on every shard, returning
// rows migrated (tests; production uses the background loop).
func (m *Manager) Migrate() int {
	total := 0
	for _, st := range m.stores {
		total += st.Migrate()
	}
	return total
}

// Aggregate fans the aggregate out to every shard concurrently and merges
// the partials.
func (m *Manager) Aggregate(tid ts.TableID, spec AggSpec) (*AggResult, error) {
	if len(m.stores) == 1 {
		return m.stores[0].Aggregate(tid, spec)
	}
	results := make([]*AggResult, len(m.stores))
	errs := make([]error, len(m.stores))
	var wg sync.WaitGroup
	for i, st := range m.stores {
		wg.Add(1)
		go func(i int, st *Store) {
			defer wg.Done()
			results[i], errs[i] = st.Aggregate(tid, spec)
		}(i, st)
	}
	wg.Wait()
	var out *AggResult
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if out == nil {
			out = r
		} else {
			out.Merge(r)
		}
	}
	return out, nil
}

// TableStats is one table's lane state summed across shards.
type TableStats struct {
	Table ts.TableID
	Name  string
	LaneStats
}

// Stats sums per-lane statistics across shards, keyed by table. Watermark
// is the minimum (the lane is only as settled as its most-lagging shard);
// Lag likewise is the maximum.
func (m *Manager) Stats() []TableStats {
	byTable := map[ts.TableID]*TableStats{}
	var order []ts.TableID
	for _, st := range m.stores {
		for _, ls := range st.Stats() {
			t := byTable[ls.Table]
			if t == nil {
				t = &TableStats{Table: ls.Table, LaneStats: ls}
				byTable[ls.Table] = t
				order = append(order, ls.Table)
				continue
			}
			t.Chunks += ls.Chunks
			t.ChunkRows += ls.ChunkRows
			t.CoveredRID += ls.CoveredRID
			t.DeltaRows += ls.DeltaRows
			t.DirtyRows += ls.DirtyRows
			t.MigratedRows += ls.MigratedRows
			t.Rebuilds += ls.Rebuilds
			t.Passes += ls.Passes
			t.DictOverflows += ls.DictOverflows
			t.DecodeErrors += ls.DecodeErrors
			if ls.Watermark > 0 && (t.Watermark == 0 || ls.Watermark < t.Watermark) {
				t.Watermark = ls.Watermark
			}
			if ls.Lag > t.Lag {
				t.Lag = ls.Lag
			}
		}
	}
	names := map[ts.TableID]string{}
	for _, name := range m.eng.Tables() {
		names[m.eng.TableID(name)] = name
	}
	out := make([]TableStats, 0, len(order))
	for _, tid := range order {
		t := byTable[tid]
		t.Name = names[tid]
		out = append(out, *t)
	}
	return out
}
