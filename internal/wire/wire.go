// Package wire defines the length-prefixed binary protocol spoken between
// internal/server and internal/client: frame layout, request verbs, response
// statuses, value codecs, and the mapping between engine errors and wire
// error codes. Both ends share this package so the encoding is written once.
//
// Every frame is
//
//	uint32 big-endian length | 1 byte opcode/status | body
//
// where length counts the opcode byte plus the body. Requests carry a verb
// opcode; responses carry StOK or StErr. The protocol is strictly
// request/response in order, which makes pipelining trivial: a client may
// write any number of request frames before reading responses, and the
// server answers them in arrival order. A transaction's operations travel
// together in one BATCH frame (batch.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
)

// Protocol identity.
const (
	// Magic opens the HELLO body; a server reading anything else hangs up.
	Magic = "HGC1"
	// Version is the protocol revision: HELLO carries it in both directions
	// and either side refuses any other value. Every frame layout is a fixed
	// field list, so a layout change, or a verb retired, bumps Version.
	Version = 6
	// MaxFrame bounds one frame so a corrupt length prefix cannot make
	// either end allocate unboundedly.
	MaxFrame = 16 << 20
)

// Request verbs.
const (
	OpHello byte = iota + 1
	OpPing
	OpStats
	OpExec
	OpBegin
	OpCommit
	OpRollback
	OpQOpen
	OpQFetch
	OpQClose
	_ // retired with Version 5: a record-level CREATE TABLE verb; SQL's CREATE TABLE makes every table
	OpTableIDs
	OpGet
	OpInsert
	OpUpdate
	OpDelete
	OpScan
	// OpReplStream hijacks the connection into a full-duplex replication
	// stream: after the server's StOK acceptance, the request/response
	// discipline ends — the primary pushes Rm* messages (see repl.go) and
	// the replica writes RmReport frames back on the same connection.
	OpReplStream
	// OpBeginShard begins a transaction pinned to one shard (U32 shard,
	// Bool transSI) — the sharded engine's single-shard fast path.
	OpBeginShard
	// OpInsertAt is OpInsert with a shard-placement hint (U32 tid, U32
	// shard, Bytes img); a single-node server treats it as OpInsert.
	OpInsertAt
	// OpSetPlacement installs a table's shard-placement policy (U32 tid,
	// U8 kind, U64 size) before the table receives rows.
	OpSetPlacement
	// OpHTAPEnable arms the background row→column migrator for a SQL table
	// (Str table name) on every shard.
	OpHTAPEnable
	_ // retired with Version 6: an aggregate verb; OpExec runs the same SELECT from its text
	// OpBatch carries several requests in one frame, answered by one frame
	// that stops at the first failure (see batch.go).
	OpBatch
)

// Response statuses.
const (
	StOK  byte = 0
	StErr byte = 1
)

// Consistency tokens (read scale-out). A session token is a WAL LSN: the
// primary's stream head right after the session's last commit. HELLO, EXEC
// and QOPEN requests end in a big-endian u64 min-LSN token, zero meaning
// none; a replica receiving a non-zero token waits for its applier to reach
// the LSN or bounces with ECodeReplicaBehind. In the other direction, COMMIT
// and EXEC responses end in a u64 commit-LSN token, zero from an engine with
// no single log (memory-only or sharded).

// Hello appends the HELLO request body: magic, Version, the auth token and
// the session's min-LSN consistency token. The server answers with its own
// Version byte and its u32 shard count.
func (w *Builder) Hello(token string, minLSN uint64) *Builder {
	return w.Raw([]byte(Magic)).U8(Version).Str(token).U64(minLSN)
}

// Wire error codes. The canonical engine errors travel as codes so the
// client can rehydrate them into the sentinels core.IsTransient and
// errors.Is understand — PR 1's degradation ladder propagates to remote
// callers through this table.
const (
	ECodeGeneric uint16 = iota
	ECodeTableNotFound
	ECodeRecordNotFound
	ECodeWriteConflict
	ECodeVersionPressure
	ECodeFailStop
	ECodeSnapshotKilled
	ECodeCursorClosed
	ECodeOutOfScope
	ECodeNoTransaction
	ECodeInTransaction
	ECodeBadRequest
	ECodeDraining
	ECodeTooManyConns
	ECodeAuth
	ECodeReadOnly
	ECodeReplTooOld
	ECodeReplDemoted
	ECodeUnavailable
	// ECodeReplicaBehind rehydrates into the transient core.ErrReplicaBehind:
	// a replica that has not yet applied up to the session's consistency
	// token bounces the read so the client can retry on another endpoint.
	ECodeReplicaBehind
)

// Protocol-level sentinels (the engine ones live in internal/core).
var (
	// ErrBadRequest reports a malformed or out-of-protocol frame.
	ErrBadRequest = errors.New("wire: bad request")
	// ErrDraining reports a server refusing new work during graceful drain.
	ErrDraining = errors.New("wire: server is draining")
	// ErrTooManyConns reports the server's connection limit reached.
	ErrTooManyConns = errors.New("wire: connection limit reached")
	// ErrAuth reports a rejected handshake token.
	ErrAuth = errors.New("wire: authentication failed")
	// ErrNoTransaction and ErrInTransaction mirror the SQL session state
	// errors without importing the SQL layer into the protocol.
	ErrNoTransaction = errors.New("wire: no transaction in progress")
	ErrInTransaction = errors.New("wire: transaction already in progress")
	// ErrReplTooOld reports a replica resuming from an LSN whose segments
	// the primary no longer retains; the replica must re-bootstrap.
	ErrReplTooOld = errors.New("wire: replication stream position no longer retained")
	// ErrReplDemoted reports a replica the primary demoted for exceeding the
	// lag bound: its segment-retention floor was dropped, and it must
	// re-bootstrap from a fresh checkpoint.
	ErrReplDemoted = errors.New("wire: replica demoted for exceeding the lag bound")
)

// codeTable pairs each non-generic code with its sentinel, in both
// directions.
var codeTable = []struct {
	code uint16
	err  error
}{
	{ECodeTableNotFound, core.ErrTableNotFound},
	{ECodeRecordNotFound, core.ErrRecordNotFound},
	{ECodeWriteConflict, core.ErrWriteConflict},
	{ECodeVersionPressure, core.ErrVersionPressure},
	{ECodeFailStop, core.ErrFailStop},
	{ECodeSnapshotKilled, core.ErrSnapshotKilled},
	{ECodeCursorClosed, core.ErrCursorClosed},
	{ECodeOutOfScope, core.ErrOutOfScope},
	{ECodeBadRequest, ErrBadRequest},
	{ECodeDraining, ErrDraining},
	{ECodeTooManyConns, ErrTooManyConns},
	{ECodeAuth, ErrAuth},
	{ECodeNoTransaction, ErrNoTransaction},
	{ECodeInTransaction, ErrInTransaction},
	{ECodeReadOnly, core.ErrReadOnly},
	{ECodeReplTooOld, ErrReplTooOld},
	{ECodeReplDemoted, ErrReplDemoted},
	// Connectivity classification (core.IsTransient's remote half): a proxy
	// or shard router can answer for an unreachable backend with a code that
	// rehydrates into the transient core.ErrUnavailable.
	{ECodeUnavailable, core.ErrUnavailable},
	{ECodeReplicaBehind, core.ErrReplicaBehind},
}

// ErrorCode maps an error to its wire code (ECodeGeneric when unknown).
func ErrorCode(err error) uint16 {
	for _, e := range codeTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return ECodeGeneric
}

// Error is a server-reported failure carried over the wire. Unwrap exposes
// the sentinel for its code, so errors.Is(err, core.ErrWriteConflict) — and
// therefore core.IsTransient — work on the client side exactly as they do
// in-process.
type Error struct {
	Code uint16
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }

// Unwrap returns the sentinel the code stands for, or nil for generic
// errors.
func (e *Error) Unwrap() error {
	for _, t := range codeTable {
		if t.code == e.Code {
			return t.err
		}
	}
	return nil
}

// maxPooledBuf caps the capacity of buffers kept in the frame and builder
// pools. Occasional giant frames (bulk scans, checkpoints) would otherwise
// pin megabytes in every pool slot forever.
const maxPooledBuf = 64 << 10

// framePool recycles the scratch buffer WriteFrame assembles frames in.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// WriteFrame writes one frame: the length prefix, the opcode/status byte,
// and the body, issued as a single Write call so an unbuffered writer (the
// client's net.Conn) sends one packet per frame. The frame is assembled in
// a pooled scratch buffer, so the steady-state cost is one copy and zero
// allocations. It returns the total bytes written.
func WriteFrame(w io.Writer, op byte, body []byte) (int, error) {
	if len(body)+1 > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body)+1)
	}
	fb := framePool.Get().(*frameBuf)
	buf := append(fb.b[:0], 0, 0, 0, 0, op)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(body)+1))
	buf = append(buf, body...)
	n, err := w.Write(buf)
	if cap(buf) > maxPooledBuf {
		buf = nil
	}
	fb.b = buf
	framePool.Put(fb)
	return n, err
}

// ReadFrame reads one frame, returning the opcode/status byte and the body.
// The body is freshly allocated and owned by the caller; loops that can
// recycle their read buffer should use ReadFrameInto.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	op, body, _, err := ReadFrameInto(r, nil)
	return op, body, err
}

// ReadFrameInto reads one frame into scratch, growing it as needed, and
// returns the opcode/status byte, the body, and the (possibly regrown)
// scratch buffer for the caller to keep for the next read. The body aliases
// scratch: it is valid only until the next use of the buffer, so callers
// must finish decoding (Parser accessors copy out) before reading again.
func ReadFrameInto(r io.Reader, scratch []byte) (byte, []byte, []byte, error) {
	// The length prefix is read into scratch too: a local array would escape
	// to the heap through the io.ReadFull interface call, costing one
	// allocation per frame — the very thing this function exists to avoid.
	if cap(scratch) < 4 {
		scratch = make([]byte, 512)
	}
	hb := scratch[:4]
	if _, err := io.ReadFull(r, hb); err != nil {
		return 0, nil, scratch, err
	}
	n := binary.BigEndian.Uint32(hb)
	if n < 1 || n > MaxFrame {
		return 0, nil, scratch, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	buf := scratch[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, scratch, err
	}
	return buf[0], buf[1:n], scratch, nil
}

// --- body codec ---

// Builder appends wire values to a request or response body.
type Builder struct{ b []byte }

// U8 appends one byte.
func (w *Builder) U8(v byte) *Builder { w.b = append(w.b, v); return w }

// Raw appends bytes without a length prefix (fixed-width fields like the
// handshake magic).
func (w *Builder) Raw(v []byte) *Builder { w.b = append(w.b, v...); return w }

// U16 appends a big-endian uint16.
func (w *Builder) U16(v uint16) *Builder {
	w.b = binary.BigEndian.AppendUint16(w.b, v)
	return w
}

// U32 appends a big-endian uint32.
func (w *Builder) U32(v uint32) *Builder {
	w.b = binary.BigEndian.AppendUint32(w.b, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Builder) U64(v uint64) *Builder {
	w.b = binary.BigEndian.AppendUint64(w.b, v)
	return w
}

// I64 appends a big-endian int64.
func (w *Builder) I64(v int64) *Builder { return w.U64(uint64(v)) }

// Bool appends a 0/1 byte.
func (w *Builder) Bool(v bool) *Builder {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// Bytes appends a length-prefixed byte slice.
func (w *Builder) Bytes(v []byte) *Builder {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
	return w
}

// Str appends a length-prefixed string.
func (w *Builder) Str(v string) *Builder {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
	return w
}

// Take returns the accumulated body. The slice aliases the builder's buffer
// and is invalidated by Reset.
func (w *Builder) Take() []byte { return w.b }

// Reset empties the builder for reuse, keeping its buffer.
func (w *Builder) Reset() *Builder { w.b = w.b[:0]; return w }

// Len returns the accumulated body length.
func (w *Builder) Len() int { return len(w.b) }

var builderPool = sync.Pool{New: func() any { return new(Builder) }}

// GetBuilder returns an empty pooled Builder. Return it with PutBuilder once
// the body from Take has been written (WriteFrame copies it out, so putting
// the builder back right after the write is safe).
func GetBuilder() *Builder { return builderPool.Get().(*Builder).Reset() }

// PutBuilder recycles a builder obtained from GetBuilder.
func PutBuilder(b *Builder) {
	if cap(b.b) > maxPooledBuf {
		b.b = nil
	}
	builderPool.Put(b)
}

// Parser consumes wire values from a body with a sticky error: after the
// first short read every subsequent accessor returns a zero value, and Err
// reports the failure once at the end.
type Parser struct {
	b    []byte
	off  int
	fail bool
}

// NewParser wraps a body.
func NewParser(b []byte) *Parser { return &Parser{b: b} }

func (r *Parser) take(n int) []byte {
	if r.fail || r.off+n > len(r.b) {
		r.fail = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// Raw reads n bytes without a length prefix (fixed-width fields like the
// handshake magic).
func (r *Parser) Raw(n int) []byte {
	v := r.take(n)
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// U8 reads one byte.
func (r *Parser) U8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a big-endian uint16.
func (r *Parser) U16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

// U32 reads a big-endian uint32.
func (r *Parser) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 reads a big-endian uint64.
func (r *Parser) U64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// I64 reads a big-endian int64.
func (r *Parser) I64() int64 { return int64(r.U64()) }

// Bool reads a 0/1 byte.
func (r *Parser) Bool() bool { return r.U8() != 0 }

// Bytes reads a length-prefixed byte slice (copied out of the frame).
func (r *Parser) Bytes() []byte {
	n := int(r.U32())
	v := r.take(n)
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// View reads a length-prefixed byte slice without copying it: the result
// aliases the body and is valid for as long as the body's buffer is.
func (r *Parser) View() []byte {
	n := int(r.U32())
	return r.take(n)
}

// Str reads a length-prefixed string.
func (r *Parser) Str() string {
	n := int(r.U32())
	v := r.take(n)
	if v == nil {
		return ""
	}
	return string(v)
}

// Err reports whether any accessor ran past the body, or trailing bytes
// remain unread.
func (r *Parser) Err() error {
	if r.fail {
		return fmt.Errorf("%w: truncated body", ErrBadRequest)
	}
	return nil
}

// Rest reports whether unread bytes remain (a malformed request).
func (r *Parser) Rest() int { return len(r.b) - r.off }

// --- datum codec ---
//
// A value travels as a type tag byte followed by the value. Datum is the
// engine's own value struct, so result rows are framed as the SQL layer
// produced them; the tag bytes are protocol constants fixed here, whatever
// the in-memory type enum does.

// Datum type tags.
const (
	DatumInt  byte = 1
	DatumText byte = 2
)

// Datum is one SQL value.
type Datum = colstore.Value

// PutDatum appends one datum.
func PutDatum(w *Builder, d Datum) {
	if d.Type == colstore.Int64 {
		w.U8(DatumInt).I64(d.I)
	} else {
		w.U8(DatumText).Str(d.S)
	}
}

// GetDatum reads one datum.
func GetDatum(r *Parser) Datum {
	if r.U8() == DatumInt {
		return colstore.IntV(r.I64())
	}
	return colstore.StrV(r.Str())
}

// PutRows appends a row block: u32 row count, then per row a u16 datum
// count and the datums.
func PutRows(w *Builder, rows [][]Datum) {
	w.U32(uint32(len(rows)))
	for _, row := range rows {
		w.U16(uint16(len(row)))
		for _, d := range row {
			PutDatum(w, d)
		}
	}
}

// GetRows reads a row block.
func GetRows(r *Parser) [][]Datum {
	n := int(r.U32())
	if n < 0 || n > MaxFrame {
		return nil
	}
	rows := make([][]Datum, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		m := int(r.U16())
		row := make([]Datum, 0, m)
		for j := 0; j < m; j++ {
			row = append(row, GetDatum(r))
		}
		if r.Err() != nil {
			return nil
		}
		rows = append(rows, row)
	}
	return rows
}

// PutStrings appends a string list.
func PutStrings(w *Builder, ss []string) {
	w.U16(uint16(len(ss)))
	for _, s := range ss {
		w.Str(s)
	}
}

// GetStrings reads a string list.
func GetStrings(r *Parser) []string {
	n := int(r.U16())
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		out = append(out, r.Str())
	}
	return out
}
