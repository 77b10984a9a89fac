package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"
)

// newOrderWrites is the shape of a New-Order's second frame with one order
// line, and the answer of a server on which everything succeeded.
var newOrderWrites = []struct {
	verb     byte
	req, res func(w *Builder)
}{
	{OpUpdate, func(w *Builder) { w.U32(2).U64(7).Bytes([]byte("district")) }, func(*Builder) {}},
	{OpInsertAt, func(w *Builder) { w.U32(6).U32(1).Bytes([]byte("order")) }, func(w *Builder) { w.U64(301) }},
	{OpInsertAt, func(w *Builder) { w.U32(5).U32(1).Bytes([]byte("new-order")) }, func(w *Builder) { w.U64(302) }},
	{OpUpdate, func(w *Builder) { w.U32(9).U64(1234).Bytes([]byte("stock")) }, func(*Builder) {}},
	{OpInsertAt, func(w *Builder) { w.U32(7).U32(1).Bytes([]byte("order-line")) }, func(w *Builder) { w.U64(303) }},
	{OpCommit, func(*Builder) {}, func(w *Builder) { w.U64(5<<32 | 17) }},
}

// TestBatchGolden pins the BATCH layout: a request and its response, built
// with the codec the client and the server use, against bytes on disk. If
// they move, wire.Version has to.
func TestBatchGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/batch_new_order.golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(text))
	if len(lines) != 2 {
		t.Fatalf("golden file holds %d lines, want request and response", len(lines))
	}
	wantReq, err := hex.DecodeString(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := hex.DecodeString(lines[1])
	if err != nil {
		t.Fatal(err)
	}

	var req Builder
	at := req.BeginBatch()
	for _, op := range newOrderWrites {
		mark := req.BeginItem(op.verb)
		op.req(&req)
		req.EndItem(mark)
	}
	req.EndBatch(at, len(newOrderWrites))
	if !bytes.Equal(req.Take(), wantReq) {
		t.Fatalf("request moved:\n got %x\nwant %x", req.Take(), wantReq)
	}

	var res Builder
	next := 0
	failed, err := RunBatch(wantReq, &res, func(verb byte, body []byte) byte {
		op := newOrderWrites[next]
		next++
		var want Builder
		op.req(&want)
		if verb != op.verb || !bytes.Equal(body, want.Take()) {
			t.Errorf("operation %d reached the server as verb %d body %x", next-1, verb, body)
		}
		op.res(&res)
		return StOK
	})
	if err != nil || failed || next != len(newOrderWrites) {
		t.Fatalf("RunBatch: ran %d, failed %v, err %v", next, failed, err)
	}
	if !bytes.Equal(res.Take(), wantRes) {
		t.Fatalf("response moved:\n got %x\nwant %x", res.Take(), wantRes)
	}
}

// TestRunBatchStopsAtFirstFailure: the failed operation is the last item of
// the response and nothing after it is handed to the dispatcher.
func TestRunBatchStopsAtFirstFailure(t *testing.T) {
	var req Builder
	at := req.BeginBatch()
	for _, verb := range []byte{OpPing, OpGet, OpCommit} {
		req.EndItem(req.BeginItem(verb))
	}
	req.EndBatch(at, 3)
	var res Builder
	var ran []byte
	failed, err := RunBatch(req.Take(), &res, func(verb byte, _ []byte) byte {
		ran = append(ran, verb)
		if verb == OpGet {
			res.U16(ECodeRecordNotFound).Str("gone")
			return StErr
		}
		return StOK
	})
	if err != nil || !failed || !bytes.Equal(ran, []byte{OpPing, OpGet}) {
		t.Fatalf("ran %v, failed %v, err %v", ran, failed, err)
	}
	items, err := ReadBatch(res.Take())
	if err != nil || items.Len() != 2 {
		t.Fatalf("response: %d items, err %v", items.Len(), err)
	}
	if st, body := items.Next(); st != StOK || len(body) != 0 {
		t.Fatalf("item 0: status %d body %x", st, body)
	}
	st, body := items.Next()
	r := NewParser(body)
	if code, msg := r.U16(), r.Str(); st != StErr || code != ECodeRecordNotFound || msg != "gone" || r.Rest() != 0 {
		t.Fatalf("item 1: status %d code %d %q", st, code, msg)
	}
}

// TestBatchLengthsBounded: a count or a nested length the rest of the frame
// cannot hold is refused before anything is sized from it.
func TestBatchLengthsBounded(t *testing.T) {
	for name, body := range map[string][]byte{
		"65535 items in no bytes":    {0xff, 0xff},
		"an item of 4 GiB":           {0, 1, OpGet, 0xff, 0xff, 0xff, 0xff, 1, 2, 3},
		"bytes after the last item":  {0, 1, OpPing, 0, 0, 0, 0, 9},
		"a second item cut short":    {0, 2, OpPing, 0, 0, 0, 0, OpPing, 0, 0},
		"no count at all":            {0},
		"more items than were named": {0, 0, OpPing, 0, 0, 0, 0},
	} {
		var w Builder
		allocs := testing.AllocsPerRun(10, func() {
			_, err := RunBatch(body, &w, func(byte, []byte) byte {
				t.Errorf("%s: an operation ran", name)
				return StOK
			})
			if !errors.Is(err, ErrBadRequest) || w.Len() != 0 {
				t.Fatalf("%s: err %v, %d response bytes", name, err, w.Len())
			}
		})
		// The error value and its message; the race detector adds its own.
		if !raceEnabled && allocs > 4 {
			t.Fatalf("%s: refusing it allocated %.0f times", name, allocs)
		}
	}
}

// FuzzDecodeBatch: a BATCH body is bytes from outside the process. Whatever
// they are, the server's decode loop must not panic; what it accepts it
// hands on operation by operation exactly as framed (re-encoding the
// operations gives the body back), and what it answers is a well-formed
// batch of as many items as ran.
func FuzzDecodeBatch(f *testing.F) {
	var w Builder
	at := w.BeginBatch()
	for _, op := range newOrderWrites {
		mark := w.BeginItem(op.verb)
		op.req(&w)
		w.EndItem(mark)
	}
	w.EndBatch(at, len(newOrderWrites))
	f.Add(append([]byte(nil), w.Take()...))
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0, 1, OpGet, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 2, OpPing, 0, 0, 0, 0, 0xee, 0, 0, 0, 1, 7})
	f.Fuzz(func(t *testing.T, body []byte) {
		var res, again Builder
		at, n := again.BeginBatch(), 0
		failed, err := RunBatch(body, &res, func(verb byte, sub []byte) byte {
			mark := again.BeginItem(verb)
			again.Raw(sub)
			again.EndItem(mark)
			n++
			res.Raw(sub)
			if verb == 0xee { // the stub's failing verb
				return StErr
			}
			return StOK
		})
		if err != nil {
			if n != 0 || res.Len() != 0 {
				t.Fatalf("refused batch ran %d operations, wrote %d bytes", n, res.Len())
			}
			return
		}
		again.EndBatch(at, n)
		if !failed && !bytes.Equal(again.Take(), body) {
			t.Fatalf("accepted %x, re-encoded %x", body, again.Take())
		}
		if failed && !bytes.HasPrefix(body[2:], again.Take()[2:]) {
			t.Fatalf("accepted %x, ran %x", body, again.Take())
		}
		items, err := ReadBatch(res.Take())
		if err != nil || items.Len() != n {
			t.Fatalf("response of %d operations: %d items, err %v", n, items.Len(), err)
		}
		for items.Len() > 0 {
			st, _ := items.Next()
			if (st == StErr) != (failed && items.Len() == 0) {
				t.Fatalf("status %d with %d items to go, failed %v", st, items.Len(), failed)
			}
		}
	})
}
