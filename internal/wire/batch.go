package wire

import (
	"encoding/binary"
	"fmt"
)

// A BATCH frame carries several requests and is answered by one frame:
//
//	request:  u16 n | n × (u8 verb   | u32 len | the verb's request body)
//	response: u16 m | m × (u8 status | u32 len | the verb's response body)
//
// The server runs the operations in order and stops after the first StErr,
// so m ≤ n and a failure is always the last item: whatever follows a failed
// operation — a transaction's COMMIT above all — does not run. Each item body
// is exactly what the verb carries as a frame of its own. HELLO, REPLSTREAM
// and a nested BATCH are refused inside one.

// batchItemHeader is the tag byte and length prefix in front of every item.
const batchItemHeader = 5

// BeginBatch appends a batch's item count, to be filled in by EndBatch, and
// returns where it sits.
func (w *Builder) BeginBatch() int {
	w.U16(0)
	return len(w.b) - 2
}

// EndBatch records n as the item count of the batch begun at at.
func (w *Builder) EndBatch(at, n int) {
	binary.BigEndian.PutUint16(w.b[at:], uint16(n))
}

// BeginItem opens one item under tag (a verb or a status); the item body is
// whatever is appended before EndItem, which takes the returned mark.
func (w *Builder) BeginItem(tag byte) int {
	w.b = append(w.b, tag, 0, 0, 0, 0)
	return len(w.b)
}

// EndItem closes the item begun at mark.
func (w *Builder) EndItem(mark int) {
	binary.BigEndian.PutUint32(w.b[mark-4:], uint32(len(w.b)-mark))
}

// Items walks the items of a batch body whose framing ReadBatch has checked.
// Item bodies are views of that body.
type Items struct {
	rest []byte
	n    int
}

// ReadBatch checks the framing of a whole batch body — the count against the
// bytes present before anything is sized from it, every nested length
// against what remains, nothing after the last item — and returns its items.
func ReadBatch(body []byte) (Items, error) {
	if len(body) < 2 {
		return Items{}, fmt.Errorf("%w: truncated batch", ErrBadRequest)
	}
	n, rest := int(binary.BigEndian.Uint16(body)), body[2:]
	if n > len(rest)/batchItemHeader {
		return Items{}, fmt.Errorf("%w: batch of %d items in %d bytes", ErrBadRequest, n, len(rest))
	}
	off := 0
	for i := 0; i < n; i++ {
		if len(rest)-off < batchItemHeader {
			return Items{}, fmt.Errorf("%w: batch item %d truncated", ErrBadRequest, i)
		}
		size := uint64(binary.BigEndian.Uint32(rest[off+1:]))
		if size > uint64(len(rest)-off-batchItemHeader) {
			return Items{}, fmt.Errorf("%w: batch item %d claims %d bytes", ErrBadRequest, i, size)
		}
		off += batchItemHeader + int(size)
	}
	if off != len(rest) {
		return Items{}, fmt.Errorf("%w: %d bytes after the last batch item", ErrBadRequest, len(rest)-off)
	}
	return Items{rest: rest, n: n}, nil
}

// Len reports how many items remain.
func (it *Items) Len() int { return it.n }

// Next returns the next item; it must not be called once Len is zero.
func (it *Items) Next() (tag byte, body []byte) {
	end := batchItemHeader + int(binary.BigEndian.Uint32(it.rest[1:]))
	tag, body = it.rest[0], it.rest[batchItemHeader:end]
	it.rest = it.rest[end:]
	it.n--
	return tag, body
}

// RunBatch is the server's half of BATCH: it hands the request's operations
// to run in order — run appends the verb's response body to w and returns
// its status — frames each answer as an item, and stops after the first
// StErr, which it reports as failed. A request with malformed framing is an
// error and runs nothing.
func RunBatch(body []byte, w *Builder, run func(verb byte, body []byte) byte) (failed bool, err error) {
	ops, err := ReadBatch(body)
	if err != nil {
		return false, err
	}
	at, m := w.BeginBatch(), 0
	for ops.Len() > 0 && !failed {
		verb, sub := ops.Next()
		mark := w.BeginItem(StOK)
		status := run(verb, sub)
		w.b[mark-batchItemHeader] = status
		w.EndItem(mark)
		failed = status == StErr
		m++
	}
	w.EndBatch(at, m)
	return failed, nil
}
