package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	got, err := DecodePayload(r.AppendPayload(nil))
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
	got, err := DecodePayload(r.AppendPayload(nil))
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
		got, err := DecodePayload(r.AppendPayload(nil))
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
	b := r.AppendPayload(nil)
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
	l, err := Open(Options{Dir: dir, Sync: true}, End{})
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
	if _, err := ReadAll(dir, func(r *Record) error {
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
	l, err := Open(Options{Dir: dir}, End{})
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
	if _, err := ReadAll(dir, func(r *Record) error {
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
	l, _ := Open(Options{Dir: dir}, End{})
	writeRecords(t, l, 2, 1)
	l.Close()
	// A log whose last segment was not read to its end is refused: only
	// the reader knows where a torn tail would have to be cut.
	if l, err := Open(Options{Dir: dir}, End{}); err == nil {
		l.Close()
		t.Fatal("Open without the end ReadAll found succeeded")
	}
	l2 := reopen(t, dir)
	writeRecords(t, l2, 2, 50)
	l2.Close()
	n := 0
	if _, err := ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
}

// reopen reads the log in dir to its end, as recovery does, and opens it.
func reopen(t *testing.T, dir string) *Log {
	t.Helper()
	end, err := ReadAll(dir, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir}, end)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTornTailStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir}, End{})
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
	end, err := ReadAll(dir, func(*Record) error { n++; return nil })
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	frame := int64(len(b) / 4)
	if n != 3 || end != (End{Seq: segs[0].Seq, Whole: 3 * frame, Torn: true}) {
		t.Fatalf("replayed %d records to %+v, want 3 (torn 4th dropped) ending at byte %d", n, end, 3*frame)
	}
	// Flipped byte inside the last record: checksum stops replay there too.
	b2 := append([]byte(nil), b...)
	b2[len(b2)-1] ^= 0xff
	os.WriteFile(path, b2, 0o644)
	n = 0
	if end, err = ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 || end.Whole != 3*frame || !end.Torn {
		t.Fatalf("replayed %d records to %+v after corruption, want 3", n, end)
	}
}

// ckRecord and ckTable hold a decoded checkpoint for comparison.
type ckRecord struct {
	RID   ts.RID
	Image []byte
}

type ckTable struct {
	ID      ts.TableID
	Name    string
	NextRID ts.RID
	Records []ckRecord
}

// goldenCheckpoint covers a table with records, an empty table, a RID and an
// image wider than a byte, and an empty image.
var goldenCheckpoint = []ckTable{
	{ID: 1, Name: "A", NextRID: 10, Records: []ckRecord{{1, []byte("one")}, {3, []byte("three")}}},
	{ID: 2, Name: "B"},
	{ID: 7, Name: "STOCK", NextRID: 0x1122334456, Records: []ckRecord{
		{0x1122334455, bytes.Repeat([]byte("y"), 300)}, {5, []byte{}}}},
}

const goldenCheckpointCID = ts.CID(0x0102030405060708)

// streamTables writes tables through the checkpoint encoder to w.
func streamTables(w io.Writer, cid ts.CID, tables []ckTable) error {
	c := newCheckpointWriter(w, cid)
	for _, t := range tables {
		c.Table(t.ID, t.Name, t.NextRID)
		for _, r := range t.Records {
			c.Record(r.RID, r.Image)
		}
		c.EndTable()
	}
	return c.end()
}

// readTables decodes a whole checkpoint stream.
func readTables(src io.ReadSeeker) (ts.CID, []ckTable, error) {
	ck, err := NewCheckpointReader(src)
	if err != nil {
		return 0, nil, err
	}
	var tables []ckTable
	err = ck.Each(func(id ts.TableID, name string, next ts.RID) error {
		tables = append(tables, ckTable{ID: id, Name: name, NextRID: next})
		return nil
	}, func(rid ts.RID, img []byte) error {
		t := &tables[len(tables)-1]
		t.Records = append(t.Records, ckRecord{rid, img})
		return nil
	})
	return ck.CID, tables, err
}

func goldenCheckpointBytes(t testing.TB) []byte {
	var b bytes.Buffer
	if err := streamTables(&b, goldenCheckpointCID, goldenCheckpoint); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointGolden pins the checkpoint stream: magic "HGCS", u64 CID;
// per table u32 ID, u32 name length, name, u64 next RID, then per record
// u64 RID, u32 length, image, closed by RID 0; table ID 0; CRC-32C of all
// that. Every checkpoint file and replica bootstrap carries this layout, so a
// diff here is a format break — it takes a fresh magic, not an updated
// golden file.
func TestCheckpointGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/checkpoint.golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenCheckpointBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint stream moved:\n got %x\nwant %x", got, want)
	}
	cid, tables, err := readTables(bytes.NewReader(want))
	if err != nil || cid != goldenCheckpointCID || !reflect.DeepEqual(tables, goldenCheckpoint) {
		t.Fatalf("golden checkpoint decodes to CID %d %+v, %v", cid, tables, err)
	}
}

// TestCheckpointRoundTrip: a committed checkpoint reads back from its file,
// a second one replaces it atomically, and an aborted one leaves the
// published file and no temp file behind.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(cid ts.CID, tables []ckTable, commit bool) {
		t.Helper()
		c, err := CreateCheckpoint(dir, cid)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Abort()
		for _, tb := range tables {
			c.Table(tb.ID, tb.Name, tb.NextRID)
			for _, r := range tb.Records {
				c.Record(r.RID, r.Image)
			}
			c.EndTable()
		}
		if commit {
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func() (ts.CID, []ckTable) {
		t.Helper()
		f, err := os.Open(CheckpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cid, tables, err := readTables(f)
		if err != nil {
			t.Fatal(err)
		}
		return cid, tables
	}
	write(99, goldenCheckpoint, true)
	if cid, got := read(); cid != 99 || !reflect.DeepEqual(got, goldenCheckpoint) {
		t.Fatalf("roundtrip: CID %d\n got %+v\nwant %+v", cid, got, goldenCheckpoint)
	}
	write(150, nil, true)
	if cid, got := read(); cid != 150 || got != nil {
		t.Fatalf("overwritten checkpoint: CID %d, tables %+v", cid, got)
	}
	write(200, goldenCheckpoint, false)
	if cid, _ := read(); cid != 150 {
		t.Fatalf("aborted checkpoint replaced the published one: CID %d", cid)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestCheckpointMissingAndCorrupt: a directory without a checkpoint has no
// file at CheckpointPath (recovery then replays the whole log), and every
// single flipped byte, a truncation and the retired whole-body format are
// refused before the first table is handed out.
func TestCheckpointMissingAndCorrupt(t *testing.T) {
	if _, err := os.Stat(CheckpointPath(t.TempDir())); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: %v", err)
	}
	good := goldenCheckpointBytes(t)
	for i := range good {
		b := append([]byte(nil), good...)
		b[i] ^= 0x20
		if _, err := NewCheckpointReader(bytes.NewReader(b)); err == nil {
			t.Fatalf("byte %d flipped: checkpoint accepted", i)
		}
	}
	for _, n := range []int{0, 3, 12, len(good) - 1} {
		if _, err := NewCheckpointReader(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("checkpoint truncated to %d bytes accepted", n)
		}
	}
	// The retired format: magic 0x48474343, body length, CRC, body.
	retired := binary.LittleEndian.AppendUint32(nil, 0x48474343)
	retired = append(retired, make([]byte, 20)...)
	_, err := NewCheckpointReader(bytes.NewReader(retired))
	if err == nil || !strings.Contains(err.Error(), "retired whole-body format") {
		t.Fatalf("retired checkpoint: %v, want an error naming the retired format", err)
	}
}

// TestCheckpointLengthBeyondStream: a checksummed stream whose image length
// claims 4 GiB fails without allocating what the prefix claims.
func TestCheckpointLengthBeyondStream(t *testing.T) {
	body := []byte(checkpointMagic)
	body = binary.LittleEndian.AppendUint64(body, 9)
	body = binary.LittleEndian.AppendUint32(body, 1)          // table ID
	body = binary.LittleEndian.AppendUint32(body, 1)          // name length
	body = append(body, 'A')                                  // name
	body = binary.LittleEndian.AppendUint64(body, 2)          // next RID
	body = binary.LittleEndian.AppendUint64(body, 1)          // RID
	body = binary.LittleEndian.AppendUint32(body, ^uint32(0)) // image length
	body = append(body, "tail"...)
	b := binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, _, err := readTables(bytes.NewReader(b))
	runtime.ReadMemStats(&ms)
	if err == nil {
		t.Fatal("image length beyond the stream accepted")
	}
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte stream", grew, len(b))
	}
}

// FuzzCheckpointStream feeds arbitrary bytes, under a valid CRC, to the
// checkpoint decoder — what a damaged disk or a primary's bootstrap message
// can supply once the CRC no longer protects it: it must fail or re-encode to
// exactly its input, never panic, and never allocate what a length prefix
// merely claims.
func FuzzCheckpointStream(f *testing.F) {
	good := goldenCheckpointBytes(f)
	f.Add(good[:len(good)-4])
	var empty bytes.Buffer
	if err := streamTables(&empty, 1, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes()[:empty.Len()-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		b := binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, crcTable))
		cid, tables, err := readTables(bytes.NewReader(b))
		if err != nil {
			return
		}
		size := 0
		for _, tb := range tables {
			size += len(tb.Name)
			for _, r := range tb.Records {
				size += len(r.Image)
			}
		}
		if size > len(b) {
			t.Fatalf("decoded %d name and image bytes from a %d-byte stream", size, len(b))
		}
		var again bytes.Buffer
		if err := streamTables(&again, cid, tables); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b) {
			t.Fatalf("accepted checkpoint does not round-trip: %x -> %x", b, again.Bytes())
		}
	})
}

// TestConcurrentAppends checks that DDL records (written by any session
// thread) interleaved with group-commit records (written by the committer)
// land intact: every record replays, none torn.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, End{})
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
	if _, err := ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", n, writers*perWriter)
	}
}

// TestReadSegmentConcurrentWithAppend covers a recovery-style read of the
// active segment while the appender keeps writing, next to a cursor tailing
// the same segment: ReadAll's reads are
// bounded to the file size observed at open, so an in-flight frame surfaces
// as a (tolerated) torn tail, never as ErrCorrupt — even when the appender
// finishes the frame between the reader's checksum and its tail probe.
func TestReadSegmentConcurrentWithAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, End{})
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
			first, frames, wake, err := c.NextRun()
			switch {
			case err != nil:
				curDone <- err
				return
			case wake != nil:
				<-wake
				continue
			case first != want:
				curDone <- fmt.Errorf("cursor yielded a run at %s, want %s", first, want)
				return
			}
			want, err = ReadRun(first, frames, func(lsn LSN, payload []byte) error {
				if rec, err := DecodePayload(payload); err != nil || rec.CID != ts.CID(lsn.Index()+1) {
					return fmt.Errorf("record %s decodes to %+v, %v", lsn, rec, err)
				}
				return nil
			})
			if err != nil || want != c.LSN() {
				curDone <- fmt.Errorf("run from %s to %s read to %s: %v", first, c.LSN(), want, err)
				return
			}
		}
		curDone <- nil
	}()

	reads := 0
	for time.Now().Before(deadline) {
		if _, err := ReadAll(dir, func(*Record) error { return nil }); err != nil {
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
	l, err := Open(Options{Dir: t.TempDir()}, End{})
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
		_, _, wake, err := c.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if wake == nil && c.LSN() > l.NextLSN() {
			t.Fatalf("cursor yielded records to %s, not below the head %s", c.LSN(), l.NextLSN())
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
	if got := goldenGroup.AppendPayload(nil); !bytes.Equal(got, want) {
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

// retiredLane is a record in the retired lane layout: kind 6, table 7, the
// spec "a:INT" and watermark 9.
var retiredLane = []byte{6,
	7, 0, 0, 0, 5, 0, 0, 0, 'a', ':', 'I', 'N', 'T',
	9, 0, 0, 0, 0, 0, 0, 0}

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
	_, err = ReadAll(dir, func(*Record) error { return nil })
	if !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment in the retired layout: %v, want ErrRetiredFormat and not ErrCorrupt", err)
	}
}

// TestRetiredLaneKindRefused: a log holding a lane record is refused by the
// layout's name, from a payload and from a segment, and recovery names the
// segment it found the record in.
func TestRetiredLaneKindRefused(t *testing.T) {
	_, err := DecodePayload(retiredLane)
	if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "HTAP lane records") {
		t.Fatalf("retired kind: %v, want ErrRetiredFormat naming the lane record", err)
	}
	dir := t.TempDir()
	const seg = "log-0000000000000001.wal"
	if err := os.WriteFile(filepath.Join(dir, seg), frame(retiredLane), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadAll(dir, func(*Record) error { return nil })
	if !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), seg) {
		t.Fatalf("segment holding a lane record: %v, want ErrRetiredFormat naming %s, not ErrCorrupt", err, seg)
	}
}

// frame wraps a payload the way Append does.
func frame(payload []byte) []byte {
	b := appendU32(nil, uint32(len(payload)))
	b = appendU32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// FuzzReadRun feeds the replica's run reader arbitrary frame bytes — what a
// damaged link or a hostile primary can supply. It must never panic; what it
// accepts must be whole, checked frames, so re-framing the payloads it handed
// on gives back the bytes it read; it must account for every record it
// handed on; and a length prefix claiming more than the run holds must fail
// before anything is allocated for it.
func FuzzReadRun(f *testing.F) {
	run := append(append(frame([]byte("one")), frame(nil)...), frame([]byte("three"))...)
	f.Add(run)
	f.Add(run[:len(run)-1])
	f.Add(append(frame([]byte("one")), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, frames []byte) {
		const first = LSN(3<<32 | 7)
		again := make([]byte, 0, len(frames))
		records := LSN(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, err := ReadRun(first, frames, func(lsn LSN, payload []byte) error {
			if lsn != first+records {
				t.Fatalf("record %d handed on as %s", records, lsn)
			}
			again = append(again, frame(payload)...)
			records++
			return nil
		})
		runtime.ReadMemStats(&after)
		// The bound leaves room for the reader's own buffers, the error
		// values and what the fuzzing engine allocates meanwhile.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16+2*uint64(len(frames)) {
			t.Fatalf("reading a %d-byte run allocated %d bytes", len(frames), got)
		}
		switch {
		case next != first+records:
			t.Fatalf("read to %s after handing on %d records", next, records)
		case !bytes.HasPrefix(frames, again):
			t.Fatalf("handed on payloads that re-frame as %x, not a prefix of %x", again, frames)
		case err == nil && len(again) != len(frames):
			t.Fatalf("accepted a %d-byte run after reading %d bytes", len(frames), len(again))
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("a bad run failed with %v, not ErrCorrupt", err)
		}
	})
}

// FuzzDecodePayload feeds arbitrary bytes — what a damaged disk or a hostile
// replication peer can supply — to the record decoder: it must fail or
// re-encode to exactly its input, never panic, and never allocate what a
// length prefix merely claims.
func FuzzDecodePayload(f *testing.F) {
	f.Add(goldenGroup.AppendPayload(nil))
	f.Add((&Record{Kind: KindDDL, TableID: 7, TableName: "STOCK"}).AppendPayload(nil))
	f.Add((&Record{Kind: KindPrepare, XID: 5, Ops: goldenGroup.Ops[:2]}).AppendPayload(nil))
	f.Add((&Record{Kind: KindDecision, XID: 5, Commit: true}).AppendPayload(nil))
	f.Add((&Record{Kind: KindResolve, XID: 5, Commit: true, CID: 9}).AppendPayload(nil))
	f.Add(retiredLane)
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
		if again := rec.AppendPayload(nil); !bytes.Equal(again, b) {
			t.Fatalf("accepted payload does not round-trip: %x -> %+v -> %x", b, rec, again)
		}
	})
}

// TestLengthPrefixBeyondSegmentIsTornTail: a final segment ending in a frame
// header that claims 4 GiB — a torn or damaged header — reads as a torn tail
// without allocating what the prefix claims, and Open cuts it off where
// ReadAll ended so the segment stays readable once it is no longer the last.
func TestLengthPrefixBeyondSegmentIsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, End{})
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
		if _, err := ReadAll(dir, func(*Record) error { n++; return nil }); err != nil {
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

	l2 := reopen(t, dir)
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
		first, frames, wake, err := c.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if wake != nil {
			return lsns, wake
		}
		next, err := ReadRun(first, frames, func(lsn LSN, payload []byte) error {
			lsns = append(lsns, lsn)
			_, err := DecodePayload(payload)
			return err
		})
		if err != nil || next != c.LSN() {
			t.Fatalf("run from %s to %s read to %s: %v", first, c.LSN(), next, err)
		}
	}
}

// TestCursorTailsAcrossRotations: one cursor reads from a start LSN inside a
// closed segment through a rotation, then through rotations that closed
// record-free segments (idle periodic checkpoints), and ends at the new head
// each time; a waiter parked at the head is released by Append, by Rotate and
// by Close; a following segment that was pruned is fs.ErrNotExist.
func TestCursorTailsAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, End{})
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
	if _, _, _, err := c.NextRun(); !errors.Is(err, fs.ErrNotExist) {
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
	if _, _, _, err := c2.NextRun(); err == nil {
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
	l, err := Open(Options{Dir: t.TempDir()}, End{})
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
