package client_test

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"

	"hybridgc/internal/client"
	"hybridgc/internal/ts"
	"hybridgc/internal/wire"
)

// cannedServer accepts one connection, answers its HELLO, and from then on
// answers every BATCH of n operations with n successful GET results carrying
// img — allocating nothing per frame, so that an allocation count taken in
// this process is the client's.
func cannedServer(t *testing.T, img []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		var rbuf []byte
		var w wire.Builder
		for {
			op, body, buf, err := wire.ReadFrameInto(br, rbuf)
			rbuf = buf
			if err != nil {
				return
			}
			w.Reset()
			if op == wire.OpHello {
				w.U8(wire.Version).U32(1)
			} else {
				n := int(binary.BigEndian.Uint16(body))
				at := w.BeginBatch()
				for i := 0; i < n; i++ {
					mark := w.BeginItem(wire.StOK)
					w.Bytes(img)
					w.EndItem(mark)
				}
				w.EndBatch(at, n)
			}
			if _, err := wire.WriteFrame(nc, wire.StOK, w.Take()); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestBatchDoAllocsIndependentOfOps pins the steady state of the one request
// path a transaction has: on a warmed Batch a Do allocates nothing, whether
// it carries one operation or twenty-five, results included — they alias the
// response buffer the Batch owns.
func TestBatchDoAllocsIndependentOfOps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	img := make([]byte, 100)
	cl, err := client.Dial(client.Config{Addr: cannedServer(t, img), MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	b := tx.Batch()
	do := func(n int) func() {
		return func() {
			last := 0
			for i := 0; i < n; i++ {
				last = b.Get(1, ts.RID(i+1))
			}
			if err := b.Do(); err != nil || len(b.Image(last)) != len(img) {
				t.Fatalf("batch of %d: image of %d bytes, err %v", n, len(b.Image(last)), err)
			}
		}
	}
	// Warm up: the first frame carries the BEGIN, and the buffers grow to the
	// largest frame.
	for i := 0; i < 4; i++ {
		do(25)()
	}
	small := testing.AllocsPerRun(200, do(1))
	large := testing.AllocsPerRun(200, do(25))
	if small != 0 || large != 0 {
		t.Fatalf("a Do of 1 operation allocates %.1f times, of 25 operations %.1f: want 0 for both", small, large)
	}
}
