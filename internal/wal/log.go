package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridgc/internal/fault"
)

// Failpoint sites on the logging path (zero-cost unless a test arms them).
// Each site marks one instant where a crash or I/O error leaves the
// persistency in a distinct state the recovery path must handle; the
// crash-matrix harness simulates a failure at every one of them.
var (
	// FPAppend fires before any byte of a record reaches the segment: a
	// failure here loses the record entirely.
	FPAppend = fault.Declare("wal/append", "before writing a log record")
	// FPAppendTorn writes only the first half of the frame before failing —
	// the classic torn tail a power cut mid-write leaves behind. A commit
	// group is one frame, so this is also the half-written group.
	FPAppendTorn = fault.Declare("wal/append-torn", "write half a frame, then fail (torn tail)")
	// FPSync fires after the record is flushed to the OS but before fsync:
	// the commit is not acknowledged, yet the record may survive the crash
	// (commit ambiguity).
	FPSync = fault.Declare("wal/fsync", "after flush, before fsync of a record")
	// FPRotate fires at the start of segment rotation.
	FPRotate = fault.Declare("wal/rotate", "before closing the active segment on rotation")
	// FPSegmentRemove fires before covered segments are pruned after a
	// checkpoint; leftover covered segments must replay idempotently.
	FPSegmentRemove = fault.Declare("wal/segment-remove", "before deleting a checkpoint-covered segment")
)

// segment file names are log-<seq>.wal; checkpoints are checkpoint.ckpt
// (written atomically via rename).
const (
	segmentPrefix  = "log-"
	segmentSuffix  = ".wal"
	checkpointName = "checkpoint.ckpt"
)

// LSN identifies one log record's position: the segment sequence number in
// the high 32 bits and the record's index within that segment in the low 32.
// LSNs are totally ordered and strictly increase across Append and Rotate,
// so they serve as the replication stream's cursor without any change to the
// on-disk segment format — both the append path and a segment read derive
// the same LSN for the same record.
type LSN uint64

// MakeLSN composes an LSN from a segment sequence and a record index.
func MakeLSN(seg, idx uint64) LSN { return LSN(seg<<32 | idx&0xffffffff) }

// Segment returns the segment sequence number the LSN points into.
func (l LSN) Segment() uint64 { return uint64(l) >> 32 }

// Index returns the record index within the segment.
func (l LSN) Index() uint64 { return uint64(l) & 0xffffffff }

func (l LSN) String() string { return fmt.Sprintf("%d/%d", l.Segment(), l.Index()) }

// Options configures a Log.
type Options struct {
	// Dir is the persistency directory.
	Dir string
	// Sync issues an fsync after every flushed group; when false, records
	// are buffered and flushed but not synced (faster, still crash-readable
	// up to the OS cache).
	Sync bool
}

// Log is the append side of the write-ahead log. After any write, flush or
// sync error the log latches into a failed state: the kernel's page-cache
// contents after a failed fsync are unknown, and a partial frame may have
// reached the file, so appending anything further could bury an
// already-acknowledged commit behind an unreadable tail. Every subsequent
// Append or Rotate returns ErrLogFailed wrapping the original cause; the
// only way forward is recovery through a fresh Open.
type Log struct {
	opts Options

	mu      sync.Mutex
	seq     uint64
	recs    uint64 // records appended to the current segment
	f       *os.File
	w       *bufio.Writer
	size    int64
	failErr error
	// wake, when non-nil, is held by the cursors parked at the head; the
	// next Append, Rotate or Close closes it.
	wake chan struct{}

	// frameBuf is Append's reused buffer: a record is encoded and framed
	// here, then written with one Write and made durable with one Sync.
	frameBuf []byte

	// Write-path counters (guarded by mu).
	ctrRecords int64
	ctrBatches int64
	ctrSyncs   int64
}

// Metrics is a snapshot of the log's write-path counters.
type Metrics struct {
	// Records is the number of records appended.
	Records int64
	// Batches counts the commit-group records among them.
	Batches int64
	// Syncs counts fsyncs issued on the append path.
	Syncs int64
}

// MetricsSnapshot returns the current write-path counters.
func (l *Log) MetricsSnapshot() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Metrics{Records: l.ctrRecords, Batches: l.ctrBatches, Syncs: l.ctrSyncs}
}

// ErrLogFailed reports an append on a log that already failed an I/O
// operation and fail-stopped.
var ErrLogFailed = errors.New("wal: log fail-stopped after I/O error")

var errClosed = errors.New("wal: log closed")

// Open creates (or continues) the log in dir, appending to a fresh segment
// after the highest existing one — recovery reads old segments, new writes
// never touch them. A torn record at the end of the highest existing segment
// (a crash mid-append) is cut off first: that segment stops being the final
// one here, and only the final segment may end torn (see ReadAll).
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := Segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		if err := truncateTornTail(segs[n-1].Path); err != nil {
			return nil, err
		}
		next = segs[n-1].Seq + 1
	}
	l := &Log{opts: opts, seq: next}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segmentPrefix, seq, segmentSuffix))
}

func (l *Log) openSegmentLocked() error {
	f, err := os.OpenFile(segmentPath(l.opts.Dir, l.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.size = 0
	l.recs = 0
	return nil
}

// NextLSN returns the LSN the next Append will assign. On a replica this is
// the "applied LSN" once every received record has been replayed; on the
// primary it is the stream head replicas chase — and, since PR 9, the
// session consistency token stamped on COMMIT/EXEC responses.
//
// Memory-ordering contract: NextLSN acquires the same mutex Append assigns
// LSNs and writes under, so it is safe from any goroutine and its result is a
// *publication barrier* — when NextLSN returns head, every record with
// LSN < head has fully completed its Append: its bytes were written (and,
// with Sync, fsynced) before the lock was released. A commit group is one
// record, hence one LSN: it is wholly below a token or wholly above it. This
// happens-before edge is what lets a replica compare its applied LSN against
// a token from another machine — applied ≥ token implies every write the
// token covers has been replayed — and what bounds a Cursor.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return MakeLSN(l.seq, l.recs)
}

// wakeLocked releases the cursors parked at the head, if there are any.
func (l *Log) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// failLocked latches the first I/O error; the log refuses all writes after.
func (l *Log) failLocked(err error) error {
	if l.failErr == nil {
		l.failErr = err
	}
	return err
}

// Failed returns the error that fail-stopped the log, or nil.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failErr
}

// maxFrameBufRetain caps the frame buffer kept across Append calls; one
// unusually large group should not pin its buffer forever.
const maxFrameBufRetain = 1 << 20

// Append frames one record — [u32 length][u32 crc32c][payload] — in a buffer
// reused across calls, writes it with one Write, flushes, and with Sync set
// fsyncs, making the record durable before the caller acknowledges commit.
// The head — NextLSN and the segment's byte count — moves only once all of
// that succeeded, so every byte below it belongs to an Append that returned.
// Any I/O error fail-stops the log permanently (see Log).
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if l.failErr != nil {
		return fmt.Errorf("%w: %v", ErrLogFailed, l.failErr)
	}
	if err := fault.Hit(FPAppend); err != nil {
		return l.failLocked(err)
	}
	// Reserve the frame header, encode the payload in place, then
	// backfill length and checksum — no staging buffer.
	buf := append(l.frameBuf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	buf = r.AppendPayload(buf)
	payload := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	if cap(buf) <= maxFrameBufRetain {
		l.frameBuf = buf
	} else {
		l.frameBuf = nil
	}
	if err := fault.Hit(FPAppendTorn); err != nil {
		// Simulate a torn write — the first half of the frame reaches the OS,
		// then the device dies: the record does not survive, and recovery
		// must stop replay at the torn frame.
		if _, werr := l.w.Write(buf[:len(buf)/2]); werr == nil {
			_ = l.w.Flush()
		}
		return l.failLocked(err)
	}
	if _, err := l.w.Write(buf); err != nil {
		return l.failLocked(err)
	}
	if err := l.w.Flush(); err != nil {
		return l.failLocked(err)
	}
	if l.opts.Sync {
		if err := fault.Hit(FPSync); err != nil {
			return l.failLocked(err)
		}
		if err := l.f.Sync(); err != nil {
			return l.failLocked(err)
		}
		l.ctrSyncs++
	}
	l.recs++
	l.size += int64(len(buf))
	l.wakeLocked()
	l.ctrRecords++
	if r.Kind == KindGroup {
		l.ctrBatches++
	}
	return nil
}

// Rotate closes the current segment and starts the next one, returning the
// sequence number of the segment that was closed. Checkpointing rotates
// first so that every record in the closed segments is covered by the
// subsequent checkpoint snapshot.
func (l *Log) Rotate() (closedSeq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errClosed
	}
	if l.failErr != nil {
		return 0, fmt.Errorf("%w: %v", ErrLogFailed, l.failErr)
	}
	if err := fault.Hit(FPRotate); err != nil {
		return 0, l.failLocked(err)
	}
	if err := l.w.Flush(); err != nil {
		return 0, l.failLocked(err)
	}
	if err := l.f.Close(); err != nil {
		return 0, l.failLocked(err)
	}
	closedSeq = l.seq
	l.seq++
	if err := l.openSegmentLocked(); err != nil {
		return 0, l.failLocked(err)
	}
	l.wakeLocked()
	return closedSeq, nil
}

// Size returns the bytes written to the current segment.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close flushes and closes the active segment. A fail-stopped log is closed
// without flushing: whatever sits in the buffer after a failed write is a
// partial frame that must not be appended behind acknowledged records.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.wakeLocked()
	if l.failErr == nil {
		if err := l.w.Flush(); err != nil {
			_ = l.f.Close()
			l.f = nil
			return err
		}
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// SegmentInfo names one on-disk log segment.
type SegmentInfo struct {
	Seq  uint64
	Path string
}

// Segments lists the log segments in dir in sequence order.
func Segments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []SegmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		seq, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, SegmentInfo{Seq: seq, Path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// RemoveSegmentsThrough deletes every segment with Seq <= through. Called
// after a checkpoint covers them.
func RemoveSegmentsThrough(dir string, through uint64) error {
	if err := fault.Hit(FPSegmentRemove); err != nil {
		return err
	}
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.Seq > through {
			break
		}
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}
	return nil
}

// ErrCorrupt marks a record that failed its checksum or framing somewhere a
// torn tail write cannot explain: mid-segment, at the tail of any segment
// that is not the last, or below the head of an open log. A truncated final
// entry at the very end of the last segment is the expected residue of a
// crash and is tolerated silently; anything else means the log is damaged and
// replaying past it would silently drop acknowledged commits.
var ErrCorrupt = errors.New("wal: corrupt record")

// readFrames streams one cold segment's frames as (index, payload) pairs; the
// payload is valid until fn returns. It returns torn=true when iteration
// stopped at a truncated or checksum-failed record that sits at the very end
// of the file — the torn-tail case — and whole, the byte length of the whole
// frames before it. A bad checksum with more log behind it is mid-segment
// corruption and returns ErrCorrupt. The bound is the file size observed at
// open — on a cold file all there is, and on one still being appended to a
// point every byte below which was written before the observation, so a frame
// the bound cuts short is a torn tail there too, never damage.
func readFrames(path string, fn func(idx uint64, payload []byte) error) (whole int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	var buf []byte
	for idx := uint64(0); ; idx++ {
		payload, err := readFrame(r, fi.Size()-whole, &buf)
		switch {
		case err == io.EOF:
			return whole, false, nil
		case err == errTorn:
			return whole, true, nil
		case err != nil:
			return whole, false, fmt.Errorf("%w at record %d of %s", err, idx, filepath.Base(path))
		}
		if err := fn(idx, payload); err != nil {
			return whole, false, err
		}
		whole += frameHeader + int64(len(payload))
	}
}

// truncateTornTail cuts the segment at path back to its last whole frame and
// makes the cut durable.
func truncateTornTail(path string) error {
	whole, torn, err := readFrames(path, func(uint64, []byte) error { return nil })
	if err != nil || !torn {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(whole)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadSegment streams the records of one segment file, calling fn for each.
// A torn tail — a truncated or checksum-failed final entry — ends the
// iteration without error, exactly the crash-recovery contract; corruption
// in the middle of the segment returns ErrCorrupt.
func ReadSegment(path string, fn func(*Record) error) error {
	_, _, err := readFrames(path, decoded(fn))
	return err
}

// decoded adapts a record callback to readFrames: a payload that passed its
// checksum and still does not parse is ErrCorrupt, wrapping the decoder's
// reason — except ErrRetiredFormat, which is an older version's intact log,
// not damage, and is returned under its own name with the segment's.
func decoded(fn func(*Record) error) func(uint64, []byte) error {
	return func(_ uint64, payload []byte) error {
		rec, err := DecodePayload(payload)
		switch {
		case errors.Is(err, ErrRetiredFormat):
			return err
		case err != nil:
			return fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return fn(rec)
	}
}

// ReadSegmentPayloads streams one cold segment's raw encoded payloads with
// their in-segment record indexes; a payload is valid until fn returns.
// Torn-tail semantics match ReadSegment.
func ReadSegmentPayloads(path string, fn func(idx uint64, payload []byte) error) error {
	_, _, err := readFrames(path, fn)
	return err
}

// ReadAll streams every record of every segment in dir, in order. A torn
// tail is tolerated only on the final segment: rotation closes a segment
// cleanly and Open cuts a torn tail off before starting the next one, so a
// truncated entry inside any earlier segment means damage, not a crash, and
// returns ErrCorrupt.
func ReadAll(dir string, fn func(*Record) error) error {
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		_, torn, err := readFrames(s.Path, decoded(fn))
		if errors.Is(err, ErrRetiredFormat) {
			return fmt.Errorf("%s: %w", filepath.Base(s.Path), err)
		}
		if err != nil {
			return err
		}
		if torn && i != len(segs)-1 {
			return fmt.Errorf("%w: torn record inside non-final segment %s", ErrCorrupt, filepath.Base(s.Path))
		}
	}
	return nil
}
