package sql

import (
	"fmt"
	"sort"
	"sync"

	"hybridgc/internal/ts"
)

// Index is a hash index on one column. Entries are inserted at write time
// and never eagerly removed: they are *candidates*, and every index read
// re-verifies the row against the reader's snapshot (and the predicate), so
// entries from aborted transactions, superseded updates or deletes are
// filtered out naturally. This verify-on-read design is what keeps a
// secondary index trivially MVCC-correct.
type Index struct {
	Column string
	colIdx int

	mu sync.RWMutex
	m  map[string][]ts.RID
	// member dedupes (key, rid) pairs so repeated updates to the same value
	// do not grow the postings list.
	member map[string]map[ts.RID]bool
}

// NewIndex creates an index on the column at position colIdx.
func NewIndex(column string, colIdx int) *Index {
	return &Index{
		Column: column,
		colIdx: colIdx,
		m:      make(map[string][]ts.RID),
		member: make(map[string]map[ts.RID]bool),
	}
}

// key folds a datum into a collision-free map key.
func indexKey(d Datum) string {
	if d.Type == TInt {
		return fmt.Sprintf("i\x00%d", d.I)
	}
	return "s\x00" + d.S
}

// Add registers rid as a candidate for value d.
func (ix *Index) Add(d Datum, rid ts.RID) {
	k := indexKey(d)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	set := ix.member[k]
	if set == nil {
		set = make(map[ts.RID]bool)
		ix.member[k] = set
	}
	if set[rid] {
		return
	}
	set[rid] = true
	ix.m[k] = append(ix.m[k], rid)
}

// Candidates returns the RIDs that may currently hold value d. Callers must
// verify each against their snapshot.
func (ix *Index) Candidates(d Datum) []ts.RID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]ts.RID(nil), ix.m[indexKey(d)]...)
}

// Len returns the number of distinct indexed values.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.m)
}

// anyIndex is the access-path contract both index kinds satisfy.
type anyIndex interface {
	// ColumnName returns the indexed column.
	ColumnName() string
	// ColIdx returns the indexed column's position.
	ColIdx() int
	// Add registers rid as a candidate for value d.
	Add(d Datum, rid ts.RID)
	// CandidatesFor returns candidate RIDs for the condition, and whether
	// the index can serve that condition's operator at all.
	CandidatesFor(c Condition) ([]ts.RID, bool)
	// Len returns the number of distinct indexed values.
	Len() int
}

// ColumnName implements anyIndex.
func (ix *Index) ColumnName() string { return ix.Column }

// ColIdx implements anyIndex.
func (ix *Index) ColIdx() int { return ix.colIdx }

// CandidatesFor implements anyIndex: hash indexes serve equality only.
func (ix *Index) CandidatesFor(c Condition) ([]ts.RID, bool) {
	if c.Op != OpEq {
		return nil, false
	}
	return ix.Candidates(c.Value), true
}

// OrderedIndex keeps (value, RID) entries sorted, serving equality and range
// predicates under the same verify-on-read contract as the hash index:
// entries are candidates, never removed eagerly, and every read re-verifies
// the row at the reader's snapshot.
type OrderedIndex struct {
	Column string
	colIdx int

	mu     sync.RWMutex
	keys   []Datum
	rids   []ts.RID
	member map[string]bool // indexKey(d) + rid, dedup
}

// NewOrderedIndex creates an ordered index on the column at position colIdx.
func NewOrderedIndex(column string, colIdx int) *OrderedIndex {
	return &OrderedIndex{Column: column, colIdx: colIdx, member: make(map[string]bool)}
}

// ColumnName implements anyIndex.
func (ix *OrderedIndex) ColumnName() string { return ix.Column }

// ColIdx implements anyIndex.
func (ix *OrderedIndex) ColIdx() int { return ix.colIdx }

// lowerBound returns the first position whose key is >= d.
func (ix *OrderedIndex) lowerBound(d Datum) int {
	return sort.Search(len(ix.keys), func(i int) bool { return !ix.keys[i].Less(d) })
}

// Add implements anyIndex with an ordered insertion.
func (ix *OrderedIndex) Add(d Datum, rid ts.RID) {
	mk := fmt.Sprintf("%s\x00%d", indexKey(d), rid)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.member[mk] {
		return
	}
	ix.member[mk] = true
	pos := ix.lowerBound(d)
	ix.keys = append(ix.keys, Datum{})
	ix.rids = append(ix.rids, 0)
	copy(ix.keys[pos+1:], ix.keys[pos:])
	copy(ix.rids[pos+1:], ix.rids[pos:])
	ix.keys[pos] = d
	ix.rids[pos] = rid
}

// CandidatesFor implements anyIndex for =, < and >.
func (ix *OrderedIndex) CandidatesFor(c Condition) ([]ts.RID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var lo, hi int
	switch c.Op {
	case OpEq:
		lo = ix.lowerBound(c.Value)
		hi = lo
		for hi < len(ix.keys) && ix.keys[hi] == c.Value {
			hi++
		}
	case OpLt:
		lo, hi = 0, ix.lowerBound(c.Value)
	case OpGt:
		lo = ix.lowerBound(c.Value)
		for lo < len(ix.keys) && ix.keys[lo] == c.Value {
			lo++
		}
		hi = len(ix.keys)
	default:
		return nil, false
	}
	return append([]ts.RID(nil), ix.rids[lo:hi]...), true
}

// Len implements anyIndex: the number of entries (not distinct values —
// ordered indexes keep duplicates inline).
func (ix *OrderedIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.keys)
}
