package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Replication stream protocol. An OpReplStream request hijacks the
// connection: after the server acknowledges with StOK (body: u64 primary
// NextLSN), both sides exchange length-prefixed stream messages directly —
// `u32 BE length | u8 opcode | body` — outside the request/response cycle.
// Primary → replica: RmCheckpoint / RmRecord / RmHeartbeat / RmEnd.
// Replica → primary: RmReport.
const (
	// RmCheckpoint carries the primary's checkpoint file, byte for byte, for
	// bootstrap (only when the request's StartLSN is zero, and only as the
	// first message).
	RmCheckpoint = 0x20
	// RmRecord carries one WAL record: u64 LSN | raw record payload
	// (wal.Record.EncodePayload framing, CRC-free — the stream relies on
	// TCP integrity, the replica re-frames nothing).
	RmRecord = 0x21
	// RmHeartbeat carries the primary's next append LSN (u64) plus a resume
	// point (u64, 0 when unknown): when the primary can prove the replica
	// already holds everything below the head, the resume point advances the
	// replica's applied cursor across record-free log rotations.
	RmHeartbeat = 0x22
	// RmEnd terminates the stream: u8 end code | string detail. Sent on
	// graceful drain, demotion, or an unrecoverable stream error.
	RmEnd = 0x23
	// RmReport flows replica → primary: applied LSN.
	RmReport = 0x30
)

// Stream end codes carried by RmEnd.
const (
	// EndDrain: the primary is shutting down; reconnect later.
	EndDrain = 1
	// EndDemoted: the replica exceeded the lag bound and lost its segment
	// floor; it must re-bootstrap from a checkpoint.
	EndDemoted = 2
	// EndError: internal stream failure; the replica may resume.
	EndError = 3
)

// ReplStreamRequest is the body of an OpReplStream request. StartLSN zero
// asks for a checkpoint bootstrap; nonzero resumes the WAL stream at that
// LSN (which must still be retained on the primary, else ErrReplTooOld).
type ReplStreamRequest struct {
	ReplicaID string
	StartLSN  uint64
}

// Encode appends the request body to b.
func (q ReplStreamRequest) Encode(b *Builder) {
	b.Str(q.ReplicaID).U64(q.StartLSN)
}

// DecodeReplStreamRequest parses an OpReplStream request body.
func DecodeReplStreamRequest(r *Parser) ReplStreamRequest {
	return ReplStreamRequest{ReplicaID: r.Str(), StartLSN: r.U64()}
}

// ReplReport is the body of an RmReport message: the replica's applied
// position, which the primary's segment floor for it follows.
type ReplReport struct {
	AppliedLSN uint64
}

// Encode appends the report body to b.
func (p ReplReport) Encode(b *Builder) { b.U64(p.AppliedLSN) }

// DecodeReplReport parses an RmReport body.
func DecodeReplReport(r *Parser) ReplReport { return ReplReport{AppliedLSN: r.U64()} }

// MaxStreamMessage bounds a single stream message (a checkpoint of a large
// database is the big one). Mirrors the request-frame limit.
const MaxStreamMessage = 256 << 20

// WriteStreamMsg writes one stream message (u32 length | opcode | body) and
// flushes it. Stream messages are written by a single goroutine per
// direction, so no locking is layered here.
func WriteStreamMsg(w *bufio.Writer, op byte, body []byte) error {
	if len(body)+1 > MaxStreamMessage {
		return fmt.Errorf("wire: stream message too large (%d bytes)", len(body))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// ReadStreamMsg reads one stream message, returning its opcode and body.
// The body is freshly allocated; apply loops that can recycle their read
// buffer should use ReadStreamMsgInto.
func ReadStreamMsg(r *bufio.Reader) (op byte, body []byte, err error) {
	op, body, _, err = ReadStreamMsgInto(r, nil)
	return op, body, err
}

// ReadStreamMsgInto reads one stream message into scratch, growing it as
// needed, and returns the opcode, the body, and the (possibly regrown)
// scratch buffer for the caller's next read. The body aliases scratch and is
// valid only until the buffer's next use; the Rm* decoders all copy out, so
// a caller that fully decodes each message before the next read is safe.
// Scratch capacity above MaxFrame is trimmed on the way in so one huge
// bootstrap checkpoint does not pin its buffer for the life of the stream.
func ReadStreamMsgInto(r *bufio.Reader, scratch []byte) (op byte, body, scratch2 []byte, err error) {
	if cap(scratch) > MaxFrame {
		scratch = nil
	}
	// The length prefix is read into scratch too: a local array would escape
	// to the heap through the io.ReadFull interface call (one allocation per
	// message).
	if cap(scratch) < 4 {
		scratch = make([]byte, 512)
	}
	hb := scratch[:4]
	if _, err := io.ReadFull(r, hb); err != nil {
		return 0, nil, scratch, err
	}
	n := binary.BigEndian.Uint32(hb)
	if n == 0 || n > MaxStreamMessage {
		return 0, nil, scratch, fmt.Errorf("wire: bad stream message length %d", n)
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
