package htap

// Vectorized aggregate execution over the column lane. One aggregate runs
// under one registered statement snapshot and stitches three sources into a
// single consistent answer:
//
//   - chunk vectors: present, clean slots of every chunk whose watermark is
//     at or below the snapshot — served straight from the int vectors /
//     dictionary codes, no row decoding;
//   - dirty rows and row ranges the chunks do not speak for (slots above a
//     chunk's builtThrough, chunks younger than the snapshot): ordinary
//     MVCC row reads at the snapshot;
//   - the delta tail beyond coveredHi: row reads.
//
// Chunk rows are correct for every registered snapshot TS >= watermark W
// because only settled rows enter a chunk: a settled image was written by a
// commit below the GC horizon at build time, and the horizon is <= every
// registered snapshot's timestamp — so the image is exactly what any such
// snapshot would read, and any later write re-routed the row through the
// dirty set before the scan's snapshot was acquired.

import (
	"fmt"
	"sort"

	"hybridgc/internal/colstore"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// AggOp is an aggregate operator.
type AggOp uint8

const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
)

func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggOp(%d)", uint8(op))
}

// AggSpec names one aggregate: an operator, its argument column (empty for
// COUNT, which counts rows), and an optional GROUP BY column.
type AggSpec struct {
	Op      AggOp
	Col     string
	GroupBy string
}

// Group is one output group: the key (zero Value for a scalar aggregate)
// plus all four accumulators, kept separately so per-shard partials merge
// associatively.
type Group struct {
	Key   colstore.Value
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Result extracts the operator's answer from the accumulators.
func (g Group) Result(op AggOp) int64 {
	switch op {
	case AggSum:
		return g.Sum
	case AggMin:
		return g.Min
	case AggMax:
		return g.Max
	default:
		return g.Count
	}
}

// AggResult is one aggregate's outcome. ChunkRows/RowRows count how many
// rows were served from column vectors versus MVCC row reads — the lane's
// effectiveness measure, surfaced by tests, stats, and the benchmark.
type AggResult struct {
	Op        AggOp
	Grouped   bool
	Groups    []Group
	ChunkRows int64
	RowRows   int64
}

// Merge folds another partial (for example, one shard's) into r. All four
// accumulators are associative, so merge order does not matter.
func (r *AggResult) Merge(o *AggResult) {
	if o == nil {
		return
	}
	r.ChunkRows += o.ChunkRows
	r.RowRows += o.RowRows
	idx := make(map[colstore.Value]int, len(r.Groups))
	for i, g := range r.Groups {
		idx[g.Key] = i
	}
	for _, og := range o.Groups {
		if og.Count == 0 && !r.Grouped {
			continue
		}
		i, ok := idx[og.Key]
		if !ok {
			idx[og.Key] = len(r.Groups)
			r.Groups = append(r.Groups, og)
			continue
		}
		g := &r.Groups[i]
		if og.Count == 0 {
			continue
		}
		if g.Count == 0 {
			g.Min, g.Max = og.Min, og.Max
		} else {
			if og.Min < g.Min {
				g.Min = og.Min
			}
			if og.Max > g.Max {
				g.Max = og.Max
			}
		}
		g.Count += og.Count
		g.Sum += og.Sum
	}
	r.sortGroups()
}

func (r *AggResult) sortGroups() {
	sort.Slice(r.Groups, func(i, j int) bool {
		a, b := r.Groups[i].Key, r.Groups[j].Key
		if a.S != b.S {
			return a.S < b.S
		}
		return a.I < b.I
	})
}

// plan is a compiled AggSpec: names resolved to column indexes.
type plan struct {
	op       AggOp
	colIdx   int // -1: COUNT without argument
	groupIdx int // -1: scalar
	groupStr bool
}

func compile(schema colstore.Schema, spec AggSpec) (plan, error) {
	p := plan{op: spec.Op, colIdx: -1, groupIdx: -1}
	find := func(name string) (int, error) {
		for i, c := range schema {
			if c.Name == name {
				return i, nil
			}
		}
		return -1, fmt.Errorf("htap: no column %q in schema %q", name, schema.Spec())
	}
	if spec.Col != "" {
		i, err := find(spec.Col)
		if err != nil {
			return p, err
		}
		if spec.Op != AggCount && schema[i].Type != colstore.Int64 {
			return p, fmt.Errorf("htap: %s requires an int column, %q is a string", spec.Op, spec.Col)
		}
		p.colIdx = i
	} else if spec.Op != AggCount {
		return p, fmt.Errorf("htap: %s requires an argument column", spec.Op)
	}
	if spec.GroupBy != "" {
		i, err := find(spec.GroupBy)
		if err != nil {
			return p, err
		}
		p.groupIdx = i
		p.groupStr = schema[i].Type == colstore.String
	}
	return p, nil
}

// cell accumulates one group.
type cell struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

func (c *cell) add(v int64) {
	if c.count == 0 {
		c.min, c.max = v, v
	} else {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	c.count++
	c.sum += v
}

// acc is one aggregate's accumulator state.
type acc struct {
	p      plan
	scalar cell
	cells  map[colstore.Value]*cell
	order  []colstore.Value
}

func newAcc(p plan) *acc {
	a := &acc{p: p}
	if p.groupIdx >= 0 {
		a.cells = make(map[colstore.Value]*cell)
	}
	return a
}

func (a *acc) cellFor(key colstore.Value) *cell {
	c := a.cells[key]
	if c == nil {
		c = &cell{}
		a.cells[key] = c
		a.order = append(a.order, key)
	}
	return c
}

// addRow accumulates one decoded row.
func (a *acc) addRow(row colstore.Row) {
	c := &a.scalar
	if a.p.groupIdx >= 0 {
		c = a.cellFor(row[a.p.groupIdx])
	}
	var v int64
	if a.p.colIdx >= 0 {
		v = row[a.p.colIdx].I
	}
	c.add(v)
}

// scanChunk aggregates slots [firstSlot, lastSlot] of one chunk from its
// vectors. Column slices and (for a string GROUP BY) a code→cell cache are
// hoisted out of the loop, so the hot path is array indexing plus one
// branch on the dirty set. Dirty rows are routed through rowFn; the return
// value is the number of rows served from vectors.
func (a *acc) scanChunk(ch *colstore.Chunk, firstSlot, lastSlot int, dirty map[ts.RID]struct{}, rowFn func(ts.RID)) int64 {
	base := ch.BaseRID()
	var vals []int64
	if a.p.colIdx >= 0 {
		vals = ch.Int64s(a.p.colIdx)
	}
	var gInts []int64
	var gCodes []uint32
	var dictCells []*cell
	if a.p.groupIdx >= 0 {
		if a.p.groupStr {
			var dict []string
			gCodes, dict = ch.Strings(a.p.groupIdx)
			dictCells = make([]*cell, len(dict))
			for code := range dict {
				dictCells[code] = a.cellFor(colstore.StrV(dict[code]))
			}
		} else {
			gInts = ch.Int64s(a.p.groupIdx)
		}
	}
	served := int64(0)
	for slot := firstSlot; slot <= lastSlot; slot++ {
		if dirty != nil {
			if _, d := dirty[base+ts.RID(slot)]; d {
				rowFn(base + ts.RID(slot))
				continue
			}
		}
		if !ch.Present(slot) {
			continue
		}
		var c *cell
		switch {
		case a.p.groupIdx < 0:
			c = &a.scalar
		case a.p.groupStr:
			c = dictCells[gCodes[slot]]
		default:
			c = a.cellFor(colstore.IntV(gInts[slot]))
		}
		var v int64
		if vals != nil {
			v = vals[slot]
		}
		c.add(v)
		served++
	}
	return served
}

// groups renders the accumulator into output groups. A scalar aggregate
// always yields exactly one group (COUNT of an empty table is 0); a GROUP
// BY yields one group per key seen, and drops pre-registered dictionary
// keys no row actually used.
func (a *acc) groups() []Group {
	if a.p.groupIdx < 0 {
		s := a.scalar
		return []Group{{Count: s.count, Sum: s.sum, Min: s.min, Max: s.max}}
	}
	out := make([]Group, 0, len(a.order))
	for _, key := range a.order {
		c := a.cells[key]
		if c.count == 0 {
			continue
		}
		out = append(out, Group{Key: key, Count: c.count, Sum: c.sum, Min: c.min, Max: c.max})
	}
	return out
}

// Aggregate runs one aggregate over the table's column lane under a fresh
// registered statement snapshot.
func (s *Store) Aggregate(tid ts.TableID, spec AggSpec) (*AggResult, error) {
	l := s.lane(tid)
	if l == nil {
		return nil, fmt.Errorf("%w (table %d)", ErrNoLane, tid)
	}
	p, err := compile(l.schema, spec)
	if err != nil {
		return nil, err
	}
	// The snapshot stays registered for the whole scan: it pins the GC
	// horizon so the row-read fallbacks observe a stable version space.
	snap := s.db.Manager().AcquireSnapshot(txn.KindStatement, []ts.TableID{tid})
	defer snap.Release()
	return s.aggregateAt(l, p, spec.Op, snap.TS())
}

// aggregateAt runs the scan at an explicit snapshot timestamp. The caller
// must protect at (hold a registered snapshot at or below it).
func (s *Store) aggregateAt(l *Lane, p plan, op AggOp, at ts.CID) (*AggResult, error) {
	tid := l.tid
	maxRID, err := s.db.TableMaxRID(tid)
	if err != nil {
		return nil, err
	}
	// Copy the dirty set and the chunk list as a pair no chunk swap can come
	// between (the swap takes l.mu exclusively). Two pairings would be wrong.
	// Old chunks with a shrunken dirty set: the migrator clears flags only
	// after swapping in the rebuilt chunks, so a set copied after a clear
	// comes with the chunks that justify it. And an old dirty set with newer
	// chunks: a row written after the copy is versioned when the next build
	// meets it, which leaves its slot absent and relies on the flag the copy
	// does not have — when no commit separates the scan's snapshot from the
	// build's, the watermark check below accepts that chunk and the row
	// vanished from the aggregate (TestAggregateConsistencyUnderChurn lost a
	// row in 2 % of -race runs). The dirty set is copied first inside the
	// pair: a row flagged after the copy was written after this scan's
	// snapshot, and its slot in these chunks is what the snapshot sees.
	l.mu.RLock()
	dirty := l.dirtySnapshot()
	chunks := l.chunks
	l.mu.RUnlock()
	covered := ts.RID(l.coveredHi.Load())

	a := newAcc(p)
	res := &AggResult{Op: op, Grouped: p.groupIdx >= 0}
	var decodeErr error
	rowOne := func(rid ts.RID) {
		img, ok := s.db.ReadAt(tid, rid, at)
		if !ok {
			return
		}
		row, err := colstore.DecodeRow(l.schema, img)
		if err != nil {
			if decodeErr == nil {
				decodeErr = fmt.Errorf("htap: row %d does not match lane schema %q: %w", rid, l.schema.Spec(), err)
			}
			return
		}
		a.addRow(row)
		res.RowRows++
	}
	rowRange := func(lo, hi ts.RID) {
		for rid := lo; rid <= hi; rid++ {
			rowOne(rid)
		}
	}

	pos := ts.RID(1)
	for _, lc := range chunks {
		ch := lc.chunk
		base := ch.BaseRID()
		hi := lc.builtThrough
		if hi > covered {
			hi = covered
		}
		if base > pos {
			rowRange(pos, base-1)
			pos = base
		}
		if pos > hi {
			continue
		}
		if at < ch.Watermark() {
			// The snapshot predates the chunk: its contents may include
			// commits the snapshot must not see. Row-read the whole range.
			rowRange(pos, hi)
		} else {
			res.ChunkRows += a.scanChunk(ch, int(pos-base), int(hi-base), dirty, rowOne)
		}
		pos = hi + 1
	}
	if pos <= maxRID {
		// The delta tail: rows never migrated.
		rowRange(pos, maxRID)
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	res.Groups = a.groups()
	res.sortGroups()
	return res, nil
}
