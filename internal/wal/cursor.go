package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// frameHeader is the [u32 length][u32 crc32c] prefix of every frame.
const frameHeader = 8

// errTorn reports that no whole frame starts where one should: the bound cuts
// its header or payload short, or the last frame below the bound fails its
// checksum.
var errTorn = errors.New("wal: torn frame")

// readFrame is the one step that turns segment bytes into a frame. r stands
// at a frame boundary with remain bytes left below the caller's bound; the
// whole frame, header and payload, is appended to dst, which grows only once
// the header's length is known to fit below the bound. io.EOF means remain
// was 0, errTorn is described above, and a checksum failure with more bytes
// behind it is ErrCorrupt.
func readFrame(r *bufio.Reader, remain int64, dst []byte) ([]byte, error) {
	if remain == 0 {
		return dst, io.EOF
	}
	if remain < frameHeader {
		return dst, errTorn
	}
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		return dst, belowBound(err)
	}
	length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > remain-frameHeader {
		// The prefix claims more than the bound leaves: a payload cut short,
		// known before allocating what a damaged header asks for.
		return dst, errTorn
	}
	n := len(dst)
	frame := slices.Grow(dst, frameHeader+int(length))[:n+frameHeader+int(length)]
	if _, err := io.ReadFull(r, frame[n:]); err != nil {
		return dst, belowBound(err)
	}
	if crc32.Checksum(frame[n+frameHeader:], crcTable) != sum {
		// A checksum failure is only a tolerable torn tail if nothing
		// follows it.
		if frameHeader+length == remain {
			return dst, errTorn
		}
		return dst, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return frame, nil
}

// belowBound names a read that ran out of file below the caller's bound: the
// segment was cut underneath the reader.
func belowBound(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// head is the log's write position: NextLSN is (seq, recs), and size is the
// bytes written to segment seq. Append moves recs and size together, under
// the mutex, only after the frame reached the file — so every byte below a
// head read under that mutex belongs to an Append that returned.
type head struct {
	seq  uint64
	recs uint64
	size int64
}

// headAfter returns the head if it differs from seen, and otherwise the
// channel the next Append, Rotate or Close will close.
func (l *Log) headAfter(seen head) (head, <-chan struct{}, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return seen, nil, errClosed
	}
	if now := (head{l.seq, l.recs, l.size}); now != seen {
		return now, nil, nil
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return seen, l.wake, nil
}

// maxRun caps the bytes of a run: a run stops at the first frame that takes
// it to maxRun or past, so a frame larger than the cap is a run of its own.
const maxRun = 256 << 10

// Cursor reads an open log's frames, run by run, in LSN order from a starting
// point to the head and on as the log grows: the replication stream. It is
// bounded by the head, not by what the file happens to hold, so it never meets
// a partial frame — anything below the head that does not check is
// ErrCorrupt. A Cursor is used by one goroutine.
type Cursor struct {
	l *Log
	// The next frame to yield is record idx of segment seg, at byte off;
	// bound is how far that segment may be read given the head last seen —
	// the head's byte count while seg is the active segment, the whole file
	// once rotation has closed it.
	seg, idx   uint64
	off, bound int64
	seen       head
	f          *os.File
	r          *bufio.Reader
	buf        []byte
}

// OpenCursor positions a cursor at start, which must not be past the head;
// LSN 0 means the oldest segment still on disk. A start whose segment has
// been pruned fails with an error matching fs.ErrNotExist.
func (l *Log) OpenCursor(start LSN) (*Cursor, error) {
	c := &Cursor{l: l, r: bufio.NewReaderSize(nil, 1<<16)}
	var err error
	if c.seen, _, err = l.headAfter(head{}); err != nil {
		return nil, err
	}
	if start == 0 {
		segs, err := Segments(l.opts.Dir)
		if err != nil {
			return nil, err
		}
		if len(segs) == 0 {
			return nil, fmt.Errorf("wal: no segment in %s: %w", l.opts.Dir, os.ErrNotExist)
		}
		start = MakeLSN(segs[0].Seq, 0)
	}
	if err = c.openSegment(start.Segment()); err != nil {
		return nil, err
	}
	for c.LSN() < start {
		_, _, wake, err := c.next(start - c.LSN())
		if err == nil && (wake != nil || c.seg != start.Segment()) {
			err = fmt.Errorf("wal: no record %s below the head", start)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// openSegment moves the cursor to the first frame of segment seq.
func (c *Cursor) openSegment(seq uint64) error {
	f, err := os.Open(segmentPath(c.l.opts.Dir, seq))
	if err != nil {
		return err
	}
	c.Close()
	c.f, c.seg, c.idx, c.off = f, seq, 0, 0
	c.r.Reset(f)
	return c.setBound()
}

// setBound derives the segment's byte bound from the head last seen.
func (c *Cursor) setBound() error {
	if c.seg == c.seen.seq {
		c.bound = c.seen.size
		return nil
	}
	fi, err := c.f.Stat()
	if err != nil {
		return err
	}
	c.bound = fi.Size()
	return nil
}

// LSN is the position of the next frame to yield. It equals the log's
// NextLSN exactly when the cursor has yielded everything below the head.
func (c *Cursor) LSN() LSN { return MakeLSN(c.seg, c.idx) }

// NextRun yields a run: the whole frames from the cursor's position to the
// head or its segment's end, up to maxRun bytes, as the segment holds them,
// valid until the next call; first is the first one's LSN, and LSN stands
// after the last. At the head it yields nothing and returns instead a non-nil
// wake channel, closed by the log's next Append, Rotate or Close. It steps to
// the following segment only once it has read its own to the end and seen
// the head move past it; a pruned one is an error matching fs.ErrNotExist.
func (c *Cursor) NextRun() (first LSN, frames []byte, wake <-chan struct{}, err error) {
	return c.next(math.MaxUint32)
}

// next is NextRun with the run also capped at limit frames.
func (c *Cursor) next(limit LSN) (first LSN, frames []byte, wake <-chan struct{}, err error) {
	for c.off == c.bound {
		if c.seg < c.seen.seq {
			if err = c.openSegment(c.seg + 1); err != nil {
				return 0, nil, nil, err
			}
			continue
		}
		if c.seen, wake, err = c.l.headAfter(c.seen); wake != nil || err != nil {
			return 0, nil, wake, err
		}
		if err = c.setBound(); err != nil {
			return 0, nil, nil, err
		}
	}
	first, frames = c.LSN(), c.buf[:0]
	for c.off < c.bound && len(frames) < maxRun && c.LSN()-first < limit {
		n := len(frames)
		if frames, err = readFrame(c.r, c.bound-c.off, frames); err != nil {
			if err == errTorn {
				err = fmt.Errorf("%w: torn frame below the log head", ErrCorrupt)
			}
			return 0, nil, nil, fmt.Errorf("%w at record %s", err, c.LSN())
		}
		c.idx++
		c.off += int64(len(frames) - n)
	}
	if cap(frames) <= 2*maxRun {
		c.buf = frames
	}
	return first, frames, nil, nil
}

// Close releases the cursor's file. The log is unaffected.
func (c *Cursor) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// ReadRun hands fn the LSN and payload (valid until fn returns) of each frame
// of a run, the first at LSN first, checked by the log's own frame reader: a
// run holds whole frames only, so one that does not check is ErrCorrupt.
// next is the LSN after the last record fn accepted.
func ReadRun(first LSN, frames []byte, fn func(LSN, []byte) error) (next LSN, err error) {
	// The smallest buffer bufio takes: a header fits, payloads read through.
	r := bufio.NewReaderSize(bytes.NewReader(frames), 16)
	_, n, torn, err := readFrames(r, int64(len(frames)), func(i uint64, payload []byte) error {
		return fn(first+LSN(i), payload)
	})
	if torn {
		err = fmt.Errorf("%w: torn frame inside a run", ErrCorrupt)
	}
	if err != nil {
		err = fmt.Errorf("%w at record %s", err, first+LSN(n))
	}
	return first + LSN(n), err
}
