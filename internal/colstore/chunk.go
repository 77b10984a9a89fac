package colstore

import (
	"errors"
	"fmt"
	"strings"

	"hybridgc/internal/ts"
)

// Chunk support: the HTAP lane's unit of columnar main storage. A chunk is
// an immutable, dictionary-encoded slice of a table's dense RID range,
// stamped with the snapshot timestamp (watermark) its contents were settled
// under. Chunks are built by the background migrator from table-space
// images and scanned vectorized — no per-row decoding — by the aggregate
// executor; they are never persisted (recovery rebuilds them from the
// recovered table state).

// ErrDictOverflow reports a chunk column whose string dictionary would
// exceed the configured bound. Dictionaries are per-chunk and must stay
// small enough that code vectors beat raw strings; an unbounded dictionary
// is a misconfigured chunk size or a pathological column, and the builder
// fails loudly instead of degrading silently.
var ErrDictOverflow = errors.New("colstore: chunk string dictionary exceeds bound")

// DefaultMaxDictSize bounds a chunk column's string dictionary when the
// builder is given no explicit bound.
const DefaultMaxDictSize = 1 << 16

// Spec renders the schema as a compact string ("id:int,name:str"), the form
// the engine's HTAP lane record carries through the log.
func (s Schema) Spec() string {
	var b strings.Builder
	for i, c := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.Name)
		b.WriteByte(':')
		if c.Type == Int64 {
			b.WriteString("int")
		} else {
			b.WriteString("str")
		}
	}
	return b.String()
}

// ParseSpec parses the Spec form back into a schema.
func ParseSpec(spec string) (Schema, error) {
	var s Schema
	if spec == "" {
		return s, fmt.Errorf("colstore: empty schema spec")
	}
	for _, part := range strings.Split(spec, ",") {
		name, typ, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return s, fmt.Errorf("colstore: bad schema spec column %q", part)
		}
		switch typ {
		case "int":
			s = append(s, Column{name, Int64})
		case "str":
			s = append(s, Column{name, String})
		default:
			return s, fmt.Errorf("colstore: bad schema spec type %q", typ)
		}
	}
	return s, nil
}

// chunkInts is one Int64 column of a chunk: a plain vector, one slot per
// RID in the chunk's range.
type chunkInts struct {
	vals []int64
}

// chunkStrings is one String column: per-chunk dictionary plus a code
// vector. Codes index dict; slot values for absent rows are 0 and must be
// guarded by the present bitmap.
type chunkStrings struct {
	dict  []string
	codes []uint32
}

// Chunk is one sealed columnar batch covering the dense RID range that
// starts at BaseRID, one slot per RID.
type Chunk struct {
	schema    Schema
	baseRID   ts.RID
	present   []bool
	rows      int
	ints      map[int]*chunkInts
	strs      map[int]*chunkStrings
	watermark ts.CID
}

// Schema returns the chunk's column layout.
func (c *Chunk) Schema() Schema { return c.schema }

// BaseRID returns the first RID of the chunk's range.
func (c *Chunk) BaseRID() ts.RID { return c.baseRID }

// Rows returns the number of present rows.
func (c *Chunk) Rows() int { return c.rows }

// Watermark returns the snapshot timestamp the chunk was settled under: a
// scan at TS >= Watermark may serve present, non-dirty slots from the
// vectors; an older snapshot must fall back to MVCC row reads.
func (c *Chunk) Watermark() ts.CID { return c.watermark }

// Present reports whether the slot holds a settled row.
func (c *Chunk) Present(slot int) bool { return c.present[slot] }

// Int64s returns column col's raw vector (nil if col is not Int64). Slots
// for absent rows hold zero; callers iterate under Present.
func (c *Chunk) Int64s(col int) []int64 {
	if ci := c.ints[col]; ci != nil {
		return ci.vals
	}
	return nil
}

// Strings returns column col's code vector and dictionary (nil if col is
// not String).
func (c *Chunk) Strings(col int) (codes []uint32, dict []string) {
	if cs := c.strs[col]; cs != nil {
		return cs.codes, cs.dict
	}
	return nil, nil
}

// DictSize returns column col's dictionary cardinality (0 for non-string
// columns) — the bound ErrDictOverflow enforces at build time.
func (c *Chunk) DictSize(col int) int {
	if cs := c.strs[col]; cs != nil {
		return len(cs.dict)
	}
	return 0
}

// ValueAt returns the cell at (col, slot); the slot must be present.
func (c *Chunk) ValueAt(col, slot int) Value {
	if ci := c.ints[col]; ci != nil {
		return IntV(ci.vals[slot])
	}
	cs := c.strs[col]
	return StrV(cs.dict[cs.codes[slot]])
}

// ChunkBuilder accumulates settled rows for one RID range and seals them
// into an immutable Chunk.
type ChunkBuilder struct {
	schema  Schema
	baseRID ts.RID
	present []bool
	rows    int
	maxDict int
	ints    map[int]*chunkInts
	strs    map[int]*builderStrings
}

type builderStrings struct {
	dict  []string
	index map[string]uint32
	codes []uint32
}

// NewChunkBuilder starts a chunk over RIDs [baseRID, baseRID+slots).
// maxDict bounds each string column's dictionary (<=0 selects
// DefaultMaxDictSize); exceeding it fails Set with ErrDictOverflow.
func NewChunkBuilder(schema Schema, baseRID ts.RID, slots, maxDict int) (*ChunkBuilder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if baseRID == 0 || slots <= 0 {
		return nil, fmt.Errorf("colstore: invalid chunk range base=%d slots=%d", baseRID, slots)
	}
	if maxDict <= 0 {
		maxDict = DefaultMaxDictSize
	}
	b := &ChunkBuilder{
		schema:  schema,
		baseRID: baseRID,
		present: make([]bool, slots),
		maxDict: maxDict,
		ints:    map[int]*chunkInts{},
		strs:    map[int]*builderStrings{},
	}
	for i, c := range schema {
		switch c.Type {
		case Int64:
			b.ints[i] = &chunkInts{vals: make([]int64, slots)}
		case String:
			b.strs[i] = &builderStrings{index: map[string]uint32{}, codes: make([]uint32, slots)}
		}
	}
	return b, nil
}

// Set places a settled row at its RID's slot. The dictionary bound is
// checked per string column; on overflow the row is not placed and the
// chunk must be built smaller (or the column left to the row path).
func (b *ChunkBuilder) Set(rid ts.RID, row Row) error {
	slot := int(rid - b.baseRID)
	if rid < b.baseRID || slot >= len(b.present) {
		return fmt.Errorf("colstore: RID %d outside chunk range [%d,%d)", rid, b.baseRID, b.baseRID+ts.RID(len(b.present)))
	}
	if len(row) != len(b.schema) {
		return fmt.Errorf("%w: %d values for %d columns", ErrSchemaMismatch, len(row), len(b.schema))
	}
	// Check every dictionary bound before mutating anything, so an overflow
	// leaves the builder unchanged.
	for i, c := range b.schema {
		if c.Type != String {
			continue
		}
		bs := b.strs[i]
		if _, known := bs.index[row[i].S]; !known && len(bs.dict) >= b.maxDict {
			return fmt.Errorf("%w: column %q at %d entries", ErrDictOverflow, c.Name, b.maxDict)
		}
	}
	for i, c := range b.schema {
		switch c.Type {
		case Int64:
			b.ints[i].vals[slot] = row[i].I
		case String:
			bs := b.strs[i]
			code, known := bs.index[row[i].S]
			if !known {
				code = uint32(len(bs.dict))
				bs.dict = append(bs.dict, row[i].S)
				bs.index[row[i].S] = code
			}
			bs.codes[slot] = code
		}
	}
	if !b.present[slot] {
		b.present[slot] = true
		b.rows++
	}
	return nil
}

// Seal freezes the builder into a Chunk at the given watermark. The builder
// must not be used afterwards.
func (b *ChunkBuilder) Seal(watermark ts.CID) *Chunk {
	c := &Chunk{
		schema:    b.schema,
		baseRID:   b.baseRID,
		present:   b.present,
		rows:      b.rows,
		ints:      b.ints,
		strs:      map[int]*chunkStrings{},
		watermark: watermark,
	}
	for col, bs := range b.strs {
		c.strs[col] = &chunkStrings{dict: bs.dict, codes: bs.codes}
	}
	return c
}
