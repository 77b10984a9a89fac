// Package colstore declares the engine's row once — a column's type, a
// typed value, a schema and the byte layout of a row image — and the
// columnar form the HTAP lane settles rows into: immutable,
// dictionary-encoded chunks (chunk.go).
//
// §2.1 pairs a row store for OLTP with a column store for OLAP under one
// transaction manager. Here rows are written and read through core.Tx only;
// internal/htap migrates their settled images into chunks and serves
// aggregates from the vectors. The SQL layer, the lane and the wire all use
// the declarations below, so a value keeps one struct and one type tag from
// the parser to the chunk to the frame.
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// ErrSchemaMismatch reports a row whose arity or value types differ from the
// schema it is encoded or placed under.
var ErrSchemaMismatch = errors.New("colstore: row does not match schema")

// ColumnType is the type of a column and of the values in it.
type ColumnType uint8

const (
	// Int64 is a 64-bit integer column.
	Int64 ColumnType = iota + 1
	// String is a string column, dictionary-encoded inside a chunk.
	String
)

// String implements fmt.Stringer with the SQL spelling.
func (t ColumnType) String() string {
	if t == Int64 {
		return "INT"
	}
	return "TEXT"
}

// Column is one column of a schema.
type Column struct {
	Name string
	Type ColumnType
}

// Schema is a table's columns in row order.
type Schema []Column

// Validate checks the schema is non-empty and every type is known.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return errors.New("colstore: invalid schema: no columns")
	}
	for _, c := range s {
		if c.Type != Int64 && c.Type != String {
			return fmt.Errorf("colstore: unknown column type %d", c.Type)
		}
	}
	return nil
}

// Value is one typed cell: I holds an Int64, S a String. It is comparable,
// so it keys the aggregate executor's group maps.
type Value struct {
	Type ColumnType
	I    int64
	S    string
}

// IntV and StrV build cells.
func IntV(v int64) Value  { return Value{Type: Int64, I: v} }
func StrV(v string) Value { return Value{Type: String, S: v} }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.Type == Int64 {
		return strconv.FormatInt(v.I, 10)
	}
	return v.S
}

// Less orders values of the same type (ints numerically, strings bytewise).
func (v Value) Less(o Value) bool {
	if v.Type == Int64 {
		return v.I < o.I
	}
	return v.S < o.S
}

// Row is one row's cells in schema order.
type Row []Value

// EncodeRow serializes a row as its image, the payload of a record version:
// an Int64 as 8 little-endian bytes, a String as a u32 little-endian length
// and the bytes. WAL directories, checkpoints and the replication stream
// carry these images, so the layout is pinned by TestRowImageGolden.
func EncodeRow(s Schema, row Row) ([]byte, error) {
	if len(row) != len(s) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrSchemaMismatch, len(row), len(s))
	}
	var b []byte
	for i, c := range s {
		if row[i].Type != c.Type {
			return nil, fmt.Errorf("%w: column %s is %s, value is %s", ErrSchemaMismatch, c.Name, c.Type, row[i].Type)
		}
		switch c.Type {
		case Int64:
			b = binary.LittleEndian.AppendUint64(b, uint64(row[i].I))
		case String:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(row[i].S)))
			b = append(b, row[i].S...)
		}
	}
	return b, nil
}

// DecodeRow parses a row image back into cells. Images arrive from the WAL
// and the replication stream: a length prefix is checked against the bytes
// that are there before anything is allocated for it.
func DecodeRow(s Schema, b []byte) (Row, error) {
	row := make(Row, len(s))
	off := 0
	for i, c := range s {
		switch c.Type {
		case Int64:
			if len(b)-off < 8 {
				return nil, fmt.Errorf("colstore: truncated row at column %s", c.Name)
			}
			row[i] = IntV(int64(binary.LittleEndian.Uint64(b[off:])))
			off += 8
		case String:
			if len(b)-off < 4 {
				return nil, fmt.Errorf("colstore: truncated row at column %s", c.Name)
			}
			n := binary.LittleEndian.Uint32(b[off:])
			off += 4
			if uint64(len(b)-off) < uint64(n) {
				return nil, fmt.Errorf("colstore: truncated string at column %s", c.Name)
			}
			row[i] = StrV(string(b[off : off+int(n)]))
			off += int(n)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("colstore: %d trailing bytes in row", len(b)-off)
	}
	return row, nil
}
