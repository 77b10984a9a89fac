package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := (&Builder{}).U32(7).Str("hello").Take()
	if _, err := WriteFrame(&buf, OpExec, body); err != nil {
		t.Fatal(err)
	}
	op, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpExec || !bytes.Equal(got, body) {
		t.Fatalf("frame round trip: op=%d body=%v", op, got)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// A zero-length frame (no opcode) is rejected.
	r := bytes.NewReader([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// An absurd length prefix is rejected before allocation.
	r = bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := WriteFrame(&bytes.Buffer{}, OpPing, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestParserStickyError(t *testing.T) {
	r := NewParser((&Builder{}).U32(5).Take())
	_ = r.U64() // runs past the body
	if r.Err() == nil {
		t.Fatal("overrun not reported")
	}
	if got := r.U32(); got != 0 {
		t.Fatalf("post-failure read returned %d", got)
	}
	if r.Str() != "" || r.Bytes() != nil {
		t.Fatal("post-failure reads must be zero")
	}
}

func TestValueRoundTrip(t *testing.T) {
	w := &Builder{}
	w.U8(3).U16(500).U32(1 << 20).U64(1 << 40).I64(-9).Bool(true)
	w.Bytes([]byte{1, 2, 3}).Str("drei")
	r := NewParser(w.Take())
	if r.U8() != 3 || r.U16() != 500 || r.U32() != 1<<20 || r.U64() != 1<<40 {
		t.Fatal("unsigned round trip broke")
	}
	if r.I64() != -9 || !r.Bool() {
		t.Fatal("signed/bool round trip broke")
	}
	if !bytes.Equal(r.Bytes(), []byte{1, 2, 3}) || r.Str() != "drei" {
		t.Fatal("bytes/string round trip broke")
	}
	if r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("err=%v rest=%d", r.Err(), r.Rest())
	}
}

func TestRowsRoundTrip(t *testing.T) {
	rows := [][]Datum{
		{colstore.IntV(42), colstore.StrV("x")},
		{colstore.IntV(-1), colstore.StrV(strings.Repeat("y", 300))},
	}
	w := &Builder{}
	PutRows(w, rows)
	got := GetRows(NewParser(w.Take()))
	if len(got) != 2 || got[0][0].I != 42 || got[1][1].S != rows[1][1].S {
		t.Fatalf("rows round trip: %+v", got)
	}
	if got[0][1].String() != "x" || got[0][0].String() != "42" {
		t.Fatal("datum String broke")
	}
}

// TestRowBlockGolden pins the row-block frame bytes against a file written
// by the tree that still had its own wire.Datum struct: carrying the
// engine's rows as they are must not move a byte, or wire.Version has to.
func TestRowBlockGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/row_block.golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Datum{
		{colstore.IntV(42), colstore.StrV("")},
		{colstore.IntV(-7), colstore.StrV(strings.Repeat("y", 300))},
		{},
	}
	w := &Builder{}
	PutRows(w, rows)
	if got := w.Take(); !bytes.Equal(got, want) {
		t.Fatalf("row block moved:\n got %x\nwant %x", got, want)
	}
	if back := GetRows(NewParser(want)); !reflect.DeepEqual(back, rows) {
		t.Fatalf("golden block decodes to %+v", back)
	}
}

func TestErrorCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		code uint16
	}{
		{core.ErrWriteConflict, ECodeWriteConflict},
		{core.ErrVersionPressure, ECodeVersionPressure},
		{core.ErrFailStop, ECodeFailStop},
		{core.ErrSnapshotKilled, ECodeSnapshotKilled},
		{core.ErrRecordNotFound, ECodeRecordNotFound},
		{core.ErrTableNotFound, ECodeTableNotFound},
		{ErrDraining, ECodeDraining},
		{errors.New("anything else"), ECodeGeneric},
	}
	for _, c := range cases {
		if got := ErrorCode(c.err); got != c.code {
			t.Fatalf("ErrorCode(%v) = %d, want %d", c.err, got, c.code)
		}
	}
}

func TestWireErrorUnwrapsToSentinel(t *testing.T) {
	e := &Error{Code: ECodeVersionPressure, Msg: "remote: version pressure"}
	if !errors.Is(e, core.ErrVersionPressure) {
		t.Fatal("wire error does not unwrap to ErrVersionPressure")
	}
	if !core.IsTransient(e) {
		t.Fatal("wire-carried pressure error must stay transient")
	}
	conflict := &Error{Code: ECodeWriteConflict, Msg: "remote: conflict"}
	if !core.IsTransient(conflict) {
		t.Fatal("wire-carried conflict must stay transient")
	}
	failstop := &Error{Code: ECodeFailStop, Msg: "remote: fail-stop"}
	if core.IsTransient(failstop) {
		t.Fatal("fail-stop must not be transient")
	}
	if (&Error{Code: ECodeGeneric, Msg: "x"}).Unwrap() != nil {
		t.Fatal("generic errors unwrap to nil")
	}
}

func TestReplMessageRoundTrips(t *testing.T) {
	reqIn := ReplStreamRequest{ReplicaID: "r1", StartLSN: 5<<32 | 12}
	b := &Builder{}
	reqIn.Encode(b)
	p := NewParser(b.Take())
	if reqOut := DecodeReplStreamRequest(p); p.Err() != nil || reqOut != reqIn {
		t.Fatalf("stream request round trip: err=%v out=%+v", p.Err(), reqOut)
	}

	repIn := ReplReport{AppliedLSN: 3<<32 | 9, MinSTS: 1234, HasSnapshots: true}
	b = &Builder{}
	repIn.Encode(b)
	p = NewParser(b.Take())
	if repOut := DecodeReplReport(p); p.Err() != nil || repOut != repIn {
		t.Fatalf("report round trip: err=%v out=%+v", p.Err(), repOut)
	}
}

func TestStreamMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteStreamMsg(bw, RmRecord, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteStreamMsg(bw, RmHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	op, body, err := ReadStreamMsg(br)
	if err != nil || op != RmRecord || string(body) != "payload" {
		t.Fatalf("msg 1: op=%#x body=%q err=%v", op, body, err)
	}
	op, body, err = ReadStreamMsg(br)
	if err != nil || op != RmHeartbeat || len(body) != 0 {
		t.Fatalf("msg 2: op=%#x body=%q err=%v", op, body, err)
	}
}
