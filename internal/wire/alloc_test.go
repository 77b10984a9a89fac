package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// TestFrameZeroAllocSteadyState pins the steady-state allocation count of
// the frame hot path — WriteFrame (pooled assembly buffer) plus
// ReadFrameInto (caller-recycled read buffer) — to zero. A regression here
// means per-request garbage on every server round trip.
func TestFrameZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := bytes.Repeat([]byte{0xAB}, 256)
	buf := bytes.NewBuffer(make([]byte, 0, 4096))
	var scratch []byte

	// Warm up: populate the frame pool and grow the scratch buffer.
	for i := 0; i < 4; i++ {
		buf.Reset()
		if _, err := WriteFrame(buf, OpPing, body); err != nil {
			t.Fatal(err)
		}
		var err error
		_, _, scratch, err = ReadFrameInto(buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if _, err := WriteFrame(buf, OpPing, body); err != nil {
			t.Fatal(err)
		}
		op, rb, sc, err := ReadFrameInto(buf, scratch)
		scratch = sc
		if err != nil || op != OpPing || len(rb) != len(body) {
			t.Fatalf("round trip: op=%d len=%d err=%v", op, len(rb), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame round trip allocates %.1f times per op, want 0", allocs)
	}
}

// TestBuilderPoolZeroAlloc pins the pooled request-builder cycle (the
// client's per-request body assembly) to zero steady-state allocations.
func TestBuilderPoolZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for i := 0; i < 4; i++ {
		b := GetBuilder()
		b.U32(7).U64(42).Str("warmup")
		PutBuilder(b)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBuilder()
		b.U32(7).U64(42).Str("steady-state")
		if b.Len() == 0 {
			t.Fatal("empty body")
		}
		PutBuilder(b)
	})
	if allocs != 0 {
		t.Fatalf("builder cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestStreamMsgZeroAllocSteadyState pins the replication apply loop's read
// path (ReadStreamMsgInto with a recycled buffer) to zero steady-state
// allocations.
func TestStreamMsgZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Pre-encode a stream of identical messages to read back.
	var raw bytes.Buffer
	payload := bytes.Repeat([]byte{0xCD}, 128)
	const msgs = 256
	bw := newTestBufioWriter(&raw)
	for i := 0; i < msgs; i++ {
		if err := WriteStreamMsg(bw, RmRun, (&Builder{}).U64(uint64(i)).Take(), payload); err != nil {
			t.Fatal(err)
		}
	}
	br := newTestBufioReader(bytes.NewReader(raw.Bytes()))
	var scratch []byte
	var err error
	_, _, scratch, err = ReadStreamMsgInto(br, scratch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(msgs-32, func() {
		op, body, sc, err := ReadStreamMsgInto(br, scratch)
		scratch = sc
		if err != nil || op != RmRun || len(body) != 8+len(payload) {
			t.Fatalf("stream msg: op=%d len=%d err=%v", op, len(body), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("stream read allocates %.1f times per op, want 0", allocs)
	}
}

func newTestBufioWriter(w *bytes.Buffer) *bufio.Writer { return bufio.NewWriter(w) }

func newTestBufioReader(r *bytes.Reader) *bufio.Reader { return bufio.NewReader(r) }
