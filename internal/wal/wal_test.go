package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

func TestRecordRoundTripDDL(t *testing.T) {
	r := &Record{Kind: KindDDL, TableID: 7, TableName: "STOCK"}
	got, err := DecodePayload(r.EncodePayload())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("roundtrip: %+v != %+v", got, r)
	}
}

func TestRecordRoundTripGroup(t *testing.T) {
	r := &Record{Kind: KindGroup, CID: 42, Ops: []Op{
		{Op: mvcc.OpInsert, Table: 1, RID: 10, Payload: []byte("hello")},
		{Op: mvcc.OpUpdate, Table: 2, RID: 20, Payload: []byte("world")},
		{Op: mvcc.OpDelete, Table: 3, RID: 30},
	}}
	got, err := DecodePayload(r.EncodePayload())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(cid uint64, tid uint32, rid uint64, payload []byte) bool {
		r := &Record{Kind: KindGroup, CID: ts.CID(cid), Ops: []Op{
			{Op: mvcc.OpUpdate, Table: ts.TableID(tid), RID: ts.RID(rid), Payload: payload},
		}}
		if len(payload) == 0 {
			r.Ops[0].Payload = nil
		}
		got, err := DecodePayload(r.EncodePayload())
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodePayload(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := DecodePayload([]byte{99}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	r := &Record{Kind: KindDDL, TableID: 1, TableName: "X"}
	b := r.EncodePayload()
	if _, err := DecodePayload(b[:len(b)-1]); err == nil {
		t.Fatal("truncated payload must fail")
	}
	if _, err := DecodePayload(append(b, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func writeRecords(t *testing.T, l *Log, n int, startCID uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := l.Append(&Record{Kind: KindGroup, CID: ts.CID(startCID + uint64(i)), Ops: []Op{
			{Op: mvcc.OpInsert, Table: 1, RID: ts.RID(i + 1), Payload: []byte("x")},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogAppendAndReadAll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 5, 100)
	if l.Size() == 0 {
		t.Fatal("size must grow")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var cids []ts.CID
	if err := ReadAll(dir, func(r *Record) error {
		cids = append(cids, r.CID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(cids) != 5 || cids[0] != 100 || cids[4] != 104 {
		t.Fatalf("replayed %v", cids)
	}
}

func TestLogRotateAndSegmentRemoval(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 3, 1)
	closed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 2, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	if err := RemoveSegmentsThrough(dir, closed); err != nil {
		t.Fatal(err)
	}
	var cids []ts.CID
	if err := ReadAll(dir, func(r *Record) error {
		cids = append(cids, r.CID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(cids) != 2 || cids[0] != 10 {
		t.Fatalf("after removal replayed %v", cids)
	}
}

func TestLogReopenAppendsNewSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	writeRecords(t, l, 2, 1)
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l2, 2, 50)
	l2.Close()
	n := 0
	if err := ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
}

func TestTornTailStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	writeRecords(t, l, 4, 1)
	l.Close()
	segs, _ := Segments(dir)
	path := segs[0].Path
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadSegment(path, func(*Record) error { n++; return nil }); err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3 (torn 4th dropped)", n)
	}
	// Flipped byte inside the last record: checksum stops replay there too.
	b2 := append([]byte(nil), b...)
	b2[len(b2)-1] ^= 0xff
	os.WriteFile(path, b2, 0o644)
	n = 0
	if err := ReadSegment(path, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records after corruption, want 3", n)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := &Checkpoint{CID: 99, Tables: []CheckpointTable{
		{ID: 1, Name: "A", NextRID: 10, Records: []CheckpointRecord{
			{RID: 1, Image: []byte("one")},
			{RID: 3, Image: []byte("three")},
		}},
		{ID: 2, Name: "B", NextRID: 0},
	}}
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, ck)
	}
	// Overwrite is atomic and replaces.
	ck2 := &Checkpoint{CID: 150}
	if err := WriteCheckpoint(dir, ck2); err != nil {
		t.Fatal(err)
	}
	got2, _ := ReadCheckpoint(dir)
	if got2.CID != 150 {
		t.Fatalf("overwritten checkpoint CID = %d", got2.CID)
	}
}

func TestCheckpointMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadCheckpoint(dir); err != ErrNoCheckpoint {
		t.Fatalf("missing checkpoint = %v", err)
	}
	if err := WriteCheckpoint(dir, &Checkpoint{CID: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0x1
	// A zero-table checkpoint body is tiny; flip a header byte instead if
	// the body is empty.
	if len(b) > 12 {
		os.WriteFile(path, b, 0o644)
	} else {
		os.WriteFile(path, bytes.Replace(b, b[4:5], []byte{0xff}, 1), 0o644)
	}
	if _, err := ReadCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint must fail")
	}
}

// TestConcurrentAppends checks that DDL records (written by any session
// thread) interleaved with group-commit records (written by the committer)
// land intact: every record replays, none torn.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 6
	const perWriter = 100
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var rec *Record
				if i%10 == 0 {
					rec = &Record{Kind: KindDDL, TableID: ts.TableID(w + 1), TableName: "T"}
				} else {
					rec = &Record{Kind: KindGroup, CID: ts.CID(w*perWriter + i), Ops: []Op{
						{Op: mvcc.OpUpdate, Table: 1, RID: ts.RID(i), Payload: []byte("p")},
					}}
				}
				if err := l.Append(rec); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", n, writers*perWriter)
	}
}

// TestReadSegmentConcurrentWithAppend covers the replication catch-up path
// reading the active segment while the appender keeps writing: reads are
// bounded to the file size observed at open, so an in-flight frame surfaces
// as a (tolerated) torn tail, never as ErrCorrupt — even when the appender
// finishes the frame between the reader's checksum and its tail probe.
func TestReadSegmentConcurrentWithAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	stop := make(chan struct{})
	appErr := make(chan error, 1)
	go func() {
		defer close(appErr)
		// Mix small frames with ones larger than the writer's buffer so a
		// flush spans several write calls — the widest window for a reader
		// to observe a partially visible frame.
		big := bytes.Repeat([]byte("x"), 96<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			payload := []byte("small")
			if i%40 == 0 {
				payload = big
			}
			rec := &Record{Kind: KindGroup, CID: ts.CID(i + 1), Ops: []Op{
				{Op: mvcc.OpUpdate, Table: 1, RID: ts.RID(i), Payload: payload},
			}}
			if err := l.Append(rec); err != nil {
				appErr <- err
				return
			}
		}
	}()

	segs, err := Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	path := segs[len(segs)-1].Path
	deadline := time.Now().Add(300 * time.Millisecond)

	// A cursor tails the same segment: bounded by the head, it meets every
	// frame whole and in order, the 96 KiB ones included.
	curDone := make(chan error, 1)
	go func() {
		c, err := l.OpenCursor(0)
		if err != nil {
			curDone <- err
			return
		}
		defer c.Close()
		for want := c.LSN(); time.Now().Before(deadline); {
			lsn, payload, wake, err := c.Next()
			switch {
			case err != nil:
				curDone <- err
				return
			case wake != nil:
				<-wake
			case lsn != want:
				curDone <- fmt.Errorf("cursor yielded %s, want %s", lsn, want)
				return
			default:
				if rec, err := DecodePayload(payload); err != nil || rec.CID != ts.CID(lsn.Index()+1) {
					curDone <- fmt.Errorf("record %s decodes to %+v, %v", lsn, rec, err)
					return
				}
				want++
			}
		}
		curDone <- nil
	}()

	reads := 0
	for time.Now().Before(deadline) {
		err := ReadSegmentPayloads(path, func(uint64, []byte) error { return nil })
		if err != nil {
			t.Fatalf("concurrent segment read: %v", err)
		}
		reads++
	}
	// The appender outlives the cursor, whose last wait an append must end.
	if err := <-curDone; err != nil {
		t.Fatalf("concurrent cursor: %v", err)
	}
	close(stop)
	if err := <-appErr; err != nil {
		t.Fatal(err)
	}
	if reads == 0 {
		t.Fatal("reader never completed a pass")
	}
}

// TestNextLSNConcurrentContract exercises NextLSN's memory-ordering contract
// under the race detector: polled concurrently with Append, the observed head
// never regresses, and a record whose Append has returned is below it.
func TestNextLSNConcurrentContract(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var appended atomic.Uint64 // records whose Append has returned
	appErr := make(chan error, 1)
	go func() {
		defer close(appErr)
		for i := 0; i < 400; i++ {
			if err := l.Append(&Record{Kind: KindGroup, CID: ts.CID(i + 1), Ops: []Op{
				{Op: mvcc.OpUpdate, Table: 1, RID: ts.RID(i + 1), Payload: []byte("x")},
			}}); err != nil {
				appErr <- err
				return
			}
			appended.Add(1)
		}
	}()

	c, err := l.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var prev LSN
	for done := false; !done; {
		select {
		case err := <-appErr:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		n := appended.Load()
		head := l.NextLSN()
		if head < prev {
			t.Fatalf("NextLSN regressed: %s after %s", head, prev)
		}
		if head.Index() < n {
			t.Fatalf("NextLSN %s below %d completed appends", head, n)
		}
		prev = head
		// The cursor side of the same barrier: whatever it yields is below a
		// head read afterwards, and a cursor that reports the head has
		// yielded every append that completed before the call.
		n = appended.Load()
		lsn, _, wake, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if wake == nil && lsn >= l.NextLSN() {
			t.Fatalf("cursor yielded %s, not below the head %s", lsn, l.NextLSN())
		}
		if wake != nil && c.LSN().Index() < n {
			t.Fatalf("cursor reports the head at %s with %d appends completed", c.LSN(), n)
		}
	}
}

// goldenGroup is a three-member commit group as LogCommit lays it out: the
// CID, then each member's operations in member order — an insert and an
// update, a delete (no image), an insert longer than a byte can count.
var goldenGroup = &Record{Kind: KindGroup, CID: 0x0102030405060708, Ops: []Op{
	{Op: mvcc.OpInsert, Table: 1, RID: 10, Payload: []byte("first")},
	{Op: mvcc.OpUpdate, Table: 2, RID: 20, Payload: []byte("second")},
	{Op: mvcc.OpDelete, Table: 3, RID: 0x1122334455},
	{Op: mvcc.OpInsert, Table: 1, RID: 11, Payload: bytes.Repeat([]byte("y"), 300)},
}}

// TestGroupRecordGolden pins the commit-group record bytes: kind, u64 CID,
// u32 op count, then per op {u8 op, u32 table, u64 RID, u32 length, image},
// little-endian. Every WAL directory and replication stream holds groups in
// this layout, so a diff here is a format break — it takes a fresh kind byte,
// not an updated golden file.
func TestGroupRecordGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/group_record.golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenGroup.EncodePayload(); !bytes.Equal(got, want) {
		t.Fatalf("group record moved:\n got %x\nwant %x", got, want)
	}
	back, err := DecodePayload(want)
	if err != nil || !reflect.DeepEqual(back, goldenGroup) {
		t.Fatalf("golden record decodes to %+v, %v", back, err)
	}
}

// retiredGroupPart is a record in the retired multi-part layout: kind 2, CID,
// part 0 of 3, no operations.
var retiredGroupPart = []byte{2,
	9, 0, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 3, 0, 0, 0,
	0, 0, 0, 0}

// TestRetiredGroupKindRefused: a log written with multi-part commit groups
// is refused by name, from a payload (the replication stream) and from a
// segment (recovery), not mis-parsed under the new layout.
func TestRetiredGroupKindRefused(t *testing.T) {
	_, err := DecodePayload(retiredGroupPart)
	if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "multi-part commit groups") {
		t.Fatalf("retired kind: %v, want ErrRetiredFormat naming the old layout", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "log-0000000000000001.wal"), frame(retiredGroupPart), 0o644); err != nil {
		t.Fatal(err)
	}
	err = ReadAll(dir, func(*Record) error { return nil })
	if !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment in the retired layout: %v, want ErrRetiredFormat and not ErrCorrupt", err)
	}
}

// frame wraps a payload the way Append does.
func frame(payload []byte) []byte {
	b := appendU32(nil, uint32(len(payload)))
	b = appendU32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// FuzzDecodePayload feeds arbitrary bytes — what a damaged disk or a hostile
// replication peer can supply — to the record decoder: it must fail or
// re-encode to exactly its input, never panic, and never allocate what a
// length prefix merely claims.
func FuzzDecodePayload(f *testing.F) {
	f.Add(goldenGroup.EncodePayload())
	f.Add((&Record{Kind: KindDDL, TableID: 7, TableName: "STOCK"}).EncodePayload())
	f.Add((&Record{Kind: KindPrepare, XID: 5, Ops: goldenGroup.Ops[:2]}).EncodePayload())
	f.Add((&Record{Kind: KindDecision, XID: 5, Commit: true}).EncodePayload())
	f.Add((&Record{Kind: KindResolve, XID: 5, Commit: true, CID: 9}).EncodePayload())
	f.Add((&Record{Kind: KindHTAPLane, TableID: 7, TableName: "a:INT", CID: 9}).EncodePayload())
	f.Add(retiredGroupPart)
	// A group claiming 4 Gi operations with nothing behind the count.
	f.Add(append([]byte{byte(KindGroup), 1, 0, 0, 0, 0, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodePayload(b)
		if err != nil {
			return
		}
		size := len(rec.TableName)
		for _, op := range rec.Ops {
			size += len(op.Payload)
		}
		if size > len(b) {
			t.Fatalf("decoded %d image bytes from a %d-byte payload", size, len(b))
		}
		if again := rec.EncodePayload(); !bytes.Equal(again, b) {
			t.Fatalf("accepted payload does not round-trip: %x -> %+v -> %x", b, rec, again)
		}
	})
}

// TestLengthPrefixBeyondSegmentIsTornTail: a final segment ending in a frame
// header that claims 4 GiB — a torn or damaged header — reads as a torn tail
// without allocating what the prefix claims, and Open cuts it off so the
// segment stays readable once it is no longer the last.
func TestLengthPrefixBeyondSegmentIsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 3, 1)
	l.Close()
	segs, _ := Segments(dir)
	whole, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), whole...), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4)
	if err := os.WriteFile(segs[0].Path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	count := func() (n int) {
		t.Helper()
		if err := ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
			t.Fatalf("reading past a 4 GiB length prefix: %v", err)
		}
		return n
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := count()
	runtime.ReadMemStats(&after)
	if n != 3 {
		t.Fatalf("replayed %d records, want the 3 whole ones", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a %d-byte segment allocated %d bytes", len(torn), got)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(segs[0].Path); !bytes.Equal(b, whole) {
		t.Fatalf("Open left %d bytes in the torn segment, want its %d whole ones", len(b), len(whole))
	}
	writeRecords(t, l2, 1, 50)
	l2.Close()
	if n := count(); n != 4 {
		t.Fatalf("replayed %d records across the repaired segment, want 4", n)
	}
}

// drain reads the cursor to the head and returns the LSNs it yielded and the
// wake channel it was handed there.
func drain(t *testing.T, c *Cursor) (lsns []LSN, wake <-chan struct{}) {
	t.Helper()
	for {
		lsn, payload, wake, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if wake != nil {
			return lsns, wake
		}
		if _, err := DecodePayload(payload); err != nil {
			t.Fatalf("record %s: %v", lsn, err)
		}
		lsns = append(lsns, lsn)
	}
}

// TestCursorTailsAcrossRotations: one cursor reads from a start LSN inside a
// closed segment through a rotation, then through rotations that closed
// record-free segments (idle periodic checkpoints), and ends at the new head
// each time; a waiter parked at the head is released by Append, by Rotate and
// by Close; a following segment that was pruned is fs.ErrNotExist.
func TestCursorTailsAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 4, 1)
	mustRotate := func() {
		t.Helper()
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	mustRotate()
	writeRecords(t, l, 2, 10)

	c, err := l.OpenCursor(MakeLSN(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, wake := drain(t, c)
	want := []LSN{MakeLSN(1, 2), MakeLSN(1, 3), MakeLSN(2, 0), MakeLSN(2, 1)}
	if !reflect.DeepEqual(got, want) || c.LSN() != l.NextLSN() {
		t.Fatalf("cursor yielded %v and stands at %s; want %v and the head %s", got, c.LSN(), want, l.NextLSN())
	}
	parked := func(what string) {
		t.Helper()
		select {
		case <-wake:
			t.Fatalf("wake channel closed before %s", what)
		default:
		}
	}
	released := func(what string) {
		t.Helper()
		select {
		case <-wake:
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter not released by %s", what)
		}
	}

	parked("Append")
	writeRecords(t, l, 1, 20)
	released("Append")
	if got, wake = drain(t, c); !reflect.DeepEqual(got, []LSN{MakeLSN(2, 2)}) {
		t.Fatalf("after the append the cursor yielded %v", got)
	}

	// Three rotations, the last two closing empty segments.
	parked("Rotate")
	mustRotate()
	released("Rotate")
	mustRotate()
	mustRotate()
	if got, wake = drain(t, c); len(got) != 0 || c.LSN() != MakeLSN(5, 0) || c.LSN() != l.NextLSN() {
		t.Fatalf("across record-free rotations the cursor yielded %v and stands at %s, head %s", got, c.LSN(), l.NextLSN())
	}
	writeRecords(t, l, 1, 30)
	if got, wake = drain(t, c); !reflect.DeepEqual(got, []LSN{MakeLSN(5, 0)}) {
		t.Fatalf("in the new segment the cursor yielded %v", got)
	}

	// A start past the end of a closed segment, or past the head, names no
	// record; a start in a pruned segment is a missing file.
	for _, start := range []LSN{MakeLSN(1, 9), MakeLSN(5, 2), MakeLSN(6, 0)} {
		if bad, err := l.OpenCursor(start); err == nil {
			bad.Close()
			t.Fatalf("OpenCursor(%s) succeeded with the head at %s", start, l.NextLSN())
		}
	}

	// The segment after the cursor's own is pruned before it gets there.
	mustRotate()
	mustRotate()
	if err := os.Remove(segmentPath(dir, 6)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Next(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("cursor stepping into a pruned segment: %v, want fs.ErrNotExist", err)
	}
	if _, err := l.OpenCursor(MakeLSN(6, 0)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenCursor in a pruned segment: %v, want fs.ErrNotExist", err)
	}

	c2, err := l.OpenCursor(l.NextLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, wake = drain(t, c2)
	parked("Close")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	released("Close")
	if _, _, _, err := c2.Next(); err == nil {
		t.Fatal("cursor over a closed log reported no error")
	}
}

// TestAppendDoesNothingForReaders: a cursor parked at the head costs Append
// the close of one channel — no allocation, no copy. What it counts is
// Append's own allocations: with every allocation sampled, the memory
// profile's records whose stack holds (*Log).Append. Whatever another
// goroutine or the runtime allocates meanwhile — the write syscall lets
// either run — has another stack and cannot count.
func TestAppendDoesNothingForReaders(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := l.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := &Record{Kind: KindGroup, CID: 1, Ops: []Op{
		{Op: mvcc.OpUpdate, Table: 1, RID: 1, Payload: bytes.Repeat([]byte("x"), 2048)},
	}}
	// appendAllocs counts what 100 Appends allocate, each with the cursor
	// parked at the head first or not.
	appendAllocs := func(park bool) int64 {
		before := allocsUnder("hybridgc/internal/wal.(*Log).Append")
		for i := 0; i < 100; i++ {
			var wake <-chan struct{}
			if park {
				_, wake = drain(t, c)
			}
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			if park {
				select {
				case <-wake:
				default:
					t.Fatal("Append left the parked cursor asleep")
				}
			}
		}
		return allocsUnder("hybridgc/internal/wal.(*Log).Append") - before
	}
	appendAllocs(false) // size the frame buffer
	if alone, parked := appendAllocs(false), appendAllocs(true); alone != 0 || parked != 0 {
		t.Fatalf("100 Appends allocate %d times alone and %d with a cursor parked at the head", alone, parked)
	}
}

// allocsUnder returns how many objects have been allocated with function fn
// on the allocating stack, as the memory profile counts them: runtime.GC
// publishes every allocation made before it.
func allocsUnder(fn string) (n int64) {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		recs = make([]runtime.MemProfileRecord, m+64)
	}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for f, more := frames.Next(); ; f, more = frames.Next() {
			if f.Function == fn {
				n += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return n
}
