package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// tap relays replica connections to the primary at target and reads what the
// primary sends on each: the HELLO and OpReplStream responses, then the
// stream messages, noting the first LSN of every run. mutate, when set, may
// change a run's body before it is passed on; conn and run count from 0.
type tap struct {
	ln     net.Listener
	mutate func(conn, run int, body []byte)
	mu     sync.Mutex
	firsts map[int][]wal.LSN
}

func startTap(t *testing.T, target string, mutate func(conn, run int, body []byte)) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln, mutate: mutate, firsts: map[int][]wal.LSN{}}
	go func() {
		for conn := 0; ; conn++ {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go func() { _, _ = io.Copy(up, down); up.Close() }()
			go tp.relay(conn, up, down)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return tp
}

func (tp *tap) relay(conn int, up, down net.Conn) {
	defer down.Close()
	defer up.Close()
	br, bw := bufio.NewReader(up), bufio.NewWriter(down)
	for i := 0; i < 2; i++ {
		st, body, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if _, err := wire.WriteFrame(bw, st, body); err != nil || bw.Flush() != nil {
			return
		}
	}
	for run := 0; ; {
		op, body, _, err := wire.ReadStreamMsgInto(br, nil)
		if err != nil {
			return
		}
		if op == wire.RmRun {
			tp.mu.Lock()
			tp.firsts[conn] = append(tp.firsts[conn], wal.LSN(binary.BigEndian.Uint64(body)))
			tp.mu.Unlock()
			if tp.mutate != nil {
				tp.mutate(conn, run, body)
			}
			run++
		}
		if wire.WriteStreamMsg(bw, op, body) != nil {
			return
		}
	}
}

func (tp *tap) addr() string { return tp.ln.Addr().String() }

// runs returns the first LSN of every run relayed on connection conn.
func (tp *tap) runs(conn int) []wal.LSN {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]wal.LSN(nil), tp.firsts[conn]...)
}

// TestCatchUpShipsRuns: a replica catching up over a 10 000-record backlog
// receives it in runs, fewer than one message per hundred records, and ends
// up holding what the primary holds.
func TestCatchUpShipsRuns(t *testing.T) {
	const n = 10000
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	rids := make([]ts.RID, n)
	for i := range rids {
		rids[i] = mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i))
	}
	tp := startTap(t, p.addr, nil)
	r := startReplica(t, tp.addr(), "r1")
	waitCaughtUp(t, p, r)

	if sent, runs := p.src.recordsSent.Load(), len(tp.runs(0)); sent < n || runs >= n/100 {
		t.Fatalf("%d records arrived in %d run messages, want >= %d in < %d", sent, runs, n, n/100)
	}
	if got, want := r.db.Manager().CurrentTS(), p.db.Manager().CurrentTS(); got != want {
		t.Fatalf("replica at CID %d, primary at %d", got, want)
	}
	for i, rid := range rids {
		want, _ := readRow(p.db, tid, rid)
		if got, ok := readRow(r.db, tid, rid); !ok || got != want {
			t.Fatalf("row %d: replica has %q (ok=%v), primary %q", i, got, ok, want)
		}
	}
}

// TestFlippedByteInRunRefused: one byte flipped inside a shipped run fails
// that frame's checksum at the replica. The run is refused with
// wal.ErrCorrupt after the frames before the bad one are applied, the applied
// LSN stops at the bad frame, and the reconnect resumes from there.
func TestFlippedByteInRunRefused(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	const n, bad = 50, 20
	rids := make([]ts.RID, n)
	lsns := make([]wal.LSN, n)
	for i := range rids {
		rids[i] = mustInsert(t, p.db, tid, fmt.Sprintf("row-%d", i))
		lsns[i] = p.db.WAL().NextLSN() - 1
	}
	tp := startTap(t, p.addr, func(conn, run int, body []byte) {
		if conn != 0 || run != 0 {
			return
		}
		first, frames := wal.LSN(binary.BigEndian.Uint64(body)), body[8:]
		off := 0
		for i := first; i < lsns[bad]; i++ {
			off += 8 + int(binary.LittleEndian.Uint32(frames[off:]))
		}
		frames[off+8] ^= 0x40 // the bad frame's first payload byte
	})

	rdb, err := core.Open(core.Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep, err := NewReplica(rdb, ReplicaConfig{Upstream: tp.addr(), ReplicaID: "r1", ReportEvery: 10 * time.Millisecond, ReconnectBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	// Resume from the log's first record, so the rows come from the run and
	// not from a bootstrap checkpoint.
	segs, err := wal.Segments(p.db.PersistDir())
	if err != nil {
		t.Fatal(err)
	}
	rep.applied.Store(uint64(wal.MakeLSN(segs[0].Seq, 0)))

	if err := rep.streamOnce(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("stream with a flipped byte ended with %v, want wal.ErrCorrupt", err)
	}
	if got := rep.AppliedLSN(); got != lsns[bad] {
		t.Fatalf("applied LSN %s after the bad frame, want %s", got, lsns[bad])
	}
	if _, ok := readRow(rdb, tid, rids[bad-1]); !ok {
		t.Fatal("the row before the bad frame was not applied")
	}
	if _, ok := readRow(rdb, tid, rids[bad]); ok {
		t.Fatal("the row of the bad frame was applied")
	}

	go func() { _ = rep.Run() }()
	if err := rep.WaitLSN(p.db.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if runs := tp.runs(1); len(runs) == 0 || runs[0] != lsns[bad] {
		t.Fatalf("the reconnect's runs start at %v, want %s", runs, lsns[bad])
	}
	for i, rid := range rids {
		if img, ok := readRow(rdb, tid, rid); !ok || img != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d after the resume: %q ok=%v", i, img, ok)
		}
	}
}
