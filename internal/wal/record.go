// Package wal implements the common persistency of §2.1: the unified
// transaction manager "provides durability based on logging and
// checkpointing to a common persistency". The log is a sequence of
// CRC-protected records — DDL records and group-commit records bundling a
// whole commit group's operations with its CID — written and flushed before
// commit acknowledgement; checkpoints serialize the table space at a commit
// timestamp so older log segments can be dropped. Recovery loads the latest
// checkpoint and replays every group-commit record above its timestamp.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// Kind tags a log record.
type Kind uint8

// The kind byte is the first byte of every record on disk and on the
// replication stream, so values are fixed; a layout change takes a fresh one.
const (
	// KindDDL records a table creation.
	KindDDL Kind = 1
	// kindGroupPart is retired: it tagged one member's share of a commit group
	// logged as several records. DecodePayload refuses it by name.
	kindGroupPart Kind = 2
	// KindPrepare records a cross-shard participant's prepared write set
	// (two-phase commit, phase one). XID identifies the distributed
	// transaction; Ops is the participant-local write set. A prepare with no
	// matching KindResolve in the same log is in doubt and is settled at
	// recovery against the coordinator's decision record.
	KindPrepare Kind = 3
	// KindDecision records the coordinator's verdict for a distributed
	// transaction (commit or abort). It lives in the coordinator shard's log
	// only; the protocol is presumed-abort, so a missing decision record
	// means abort.
	KindDecision Kind = 4
	// KindResolve marks a prepared transaction settled in this participant's
	// log. On commit it carries the CID the participant published the write
	// set under, so replay can order it against surrounding group records;
	// on abort CID is ts.Invalid and the prepared write set is dropped.
	KindResolve Kind = 5
	// kindHTAPLane is retired: it recorded a table's HTAP column lane. A lane
	// is now a row of the SQL catalog's lane table, logged as ordinary data.
	// DecodePayload refuses it by name.
	kindHTAPLane Kind = 6
	// KindGroup records one commit group: the CID and every operation of
	// every member transaction, in member order. A group is one record, so
	// the frame checksum makes it atomic: it is replayed whole or not at all.
	KindGroup Kind = 7
)

// ErrRetiredFormat reports a record kind this version no longer reads; the
// error wrapping it names the layout.
var ErrRetiredFormat = errors.New("wal: retired record format")

// retiredKinds names the layout each retired kind belonged to.
var retiredKinds = map[Kind]string{
	kindGroupPart: "multi-part commit groups (record kind 2)",
	kindHTAPLane:  "HTAP lane records (record kind 6), from before lanes were SQL catalog rows",
}

// Op is one logged data operation.
type Op struct {
	Op      mvcc.OpType
	Table   ts.TableID
	RID     ts.RID
	Payload []byte
}

// Record is one decoded log record.
type Record struct {
	Kind Kind

	// DDL fields.
	TableID   ts.TableID
	TableName string

	// Group fields.
	CID ts.CID
	Ops []Op

	// Two-phase-commit fields (KindPrepare, KindDecision, KindResolve). XID
	// is the cluster-wide distributed transaction identifier; Commit is the
	// verdict on a decision or resolve record. A prepare reuses Ops for the
	// participant-local write set; a commit-resolve reuses CID for the CID
	// the write set was published under.
	XID    uint64
	Commit bool
}

// appendU32/U64 helpers over binary.LittleEndian.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// EncodePayload serializes the record body (without framing).
func (r *Record) EncodePayload() []byte {
	return r.AppendPayload(nil)
}

// AppendPayload serializes the record body onto b — the allocation-free form
// the append path uses to frame a record in its reused buffer.
func (r *Record) AppendPayload(b []byte) []byte {
	b = append(b, byte(r.Kind))
	switch r.Kind {
	case KindDDL:
		b = appendU32(b, uint32(r.TableID))
		b = appendU32(b, uint32(len(r.TableName)))
		b = append(b, r.TableName...)
	case KindGroup:
		b = appendU64(b, uint64(r.CID))
		b = appendOps(b, r.Ops)
	case KindPrepare:
		b = appendU64(b, r.XID)
		b = appendOps(b, r.Ops)
	case KindDecision:
		b = appendU64(b, r.XID)
		b = appendBool(b, r.Commit)
	case KindResolve:
		b = appendU64(b, r.XID)
		b = appendBool(b, r.Commit)
		b = appendU64(b, uint64(r.CID))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendOps(b []byte, ops []Op) []byte {
	b = appendU32(b, uint32(len(ops)))
	for _, op := range ops {
		b = append(b, byte(op.Op))
		b = appendU32(b, uint32(op.Table))
		b = appendU64(b, uint64(op.RID))
		b = appendU32(b, uint32(len(op.Payload)))
		b = append(b, op.Payload...)
	}
	return b
}

// decodeCursor walks an encoded payload. The first field that does not fit
// latches err; every read after it returns zero values.
type decodeCursor struct {
	b   []byte
	off int
	err error
}

// take returns the next n bytes, or nil once the payload has run short.
func (c *decodeCursor) take(n int) []byte {
	if c.err == nil && (n < 0 || c.off+n > len(c.b)) {
		c.err = errTruncated(c.off, len(c.b))
	}
	if c.err != nil {
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

func (c *decodeCursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *decodeCursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *decodeCursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *decodeCursor) bool() bool {
	v := c.u8()
	if c.err == nil && v > 1 {
		c.err = fmt.Errorf("wal: boolean byte %d at offset %d", v, c.off-1)
	}
	return v == 1
}

func (c *decodeCursor) ops() []Op {
	var out []Op
	for n := c.u32(); c.err == nil && n > 0; n-- {
		op := Op{Op: mvcc.OpType(c.u8()), Table: ts.TableID(c.u32()), RID: ts.RID(c.u64())}
		if payload := c.take(int(c.u32())); len(payload) > 0 {
			op.Payload = append([]byte(nil), payload...)
		}
		out = append(out, op)
	}
	return out
}

func errTruncated(off, n int) error {
	return fmt.Errorf("wal: truncated record at offset %d of %d", off, n)
}

// DecodePayload parses a record body.
func DecodePayload(b []byte) (*Record, error) {
	c := &decodeCursor{b: b}
	r := &Record{Kind: Kind(c.u8())}
	switch r.Kind {
	case KindDDL:
		r.TableID = ts.TableID(c.u32())
		r.TableName = string(c.take(int(c.u32())))
	case KindGroup:
		r.CID = ts.CID(c.u64())
		r.Ops = c.ops()
	case KindPrepare:
		r.XID = c.u64()
		r.Ops = c.ops()
	case KindDecision:
		r.XID = c.u64()
		r.Commit = c.bool()
	case KindResolve:
		r.XID = c.u64()
		r.Commit = c.bool()
		r.CID = ts.CID(c.u64())
	case kindGroupPart, kindHTAPLane:
		return nil, fmt.Errorf("%w: log written with %s, which this version does not read",
			ErrRetiredFormat, retiredKinds[r.Kind])
	default:
		return nil, cmp.Or(c.err, fmt.Errorf("wal: unknown record kind %d", r.Kind))
	}
	if c.err == nil && c.off != len(b) {
		c.err = fmt.Errorf("wal: %d trailing bytes in record", len(b)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return r, nil
}

// crcTable is the Castagnoli table used for record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)
