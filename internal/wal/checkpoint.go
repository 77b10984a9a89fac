package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"hybridgc/internal/fault"
	"hybridgc/internal/ts"
)

// Failpoint sites on the checkpoint path. Checkpoints are written to a temp
// file and renamed into place, so a failure at any of these leaves the
// previous checkpoint intact and recovery unaffected — which the crash
// matrix verifies.
var (
	// FPCheckpointWrite fires before the temp file is created.
	FPCheckpointWrite = fault.Declare("wal/checkpoint-write", "before writing the checkpoint temp file")
	// FPCheckpointSync fires after the body is written, before the temp file
	// is fsynced.
	FPCheckpointSync = fault.Declare("wal/checkpoint-sync", "after writing, before syncing the checkpoint temp file")
	// FPCheckpointRename fires after the temp file is synced, before the
	// atomic rename — the instant a crash strands a complete but unnamed
	// checkpoint next to the old one.
	FPCheckpointRename = fault.Declare("wal/checkpoint-rename", "after temp-file sync, before the atomic rename")
)

// A checkpoint is a transactionally consistent table-space image: the
// catalog, every visible record's image as of the checkpoint CID, and the RID
// allocator positions. Log records with CID <= CID are covered and can be
// dropped. It is one stream, written and read front to back, so neither side
// needs a count or a length in advance (all integers little-endian):
//
//	magic "HGCS", CID u64
//	per table: ID u32, name length u32, name, next RID u64,
//	           then per record: RID u64, image length u32, image;
//	           RID 0 (never allocated) ends the table's records
//	table ID 0 (never allocated) ends the tables
//	CRC-32C u32 of every byte before it
//
// The same bytes are the checkpoint file and a replica's bootstrap message.
const (
	checkpointMagic = "HGCS"
	// retiredCheckpointMagic opens a checkpoint of the earlier whole-body
	// format (a length and CRC header in front of one encoded copy of the
	// database), which this package no longer reads.
	retiredCheckpointMagic = "CCGH"
)

// CheckpointPath returns the path of the checkpoint file in dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointName) }

// CheckpointWriter streams one checkpoint into a temp file. Table and
// Record errors are held by the buffered writer and returned by Commit.
type CheckpointWriter struct {
	f   *os.File
	sum hash.Hash32 // of every byte flushed so far
	w   *bufio.Writer
}

// CreateCheckpoint starts a checkpoint of the state at cid in dir. The
// caller writes each table in catalog order as Table, its Records and
// EndTable, then Commit publishes the checkpoint; Abort discards an
// unpublished one and is harmless after Commit.
func CreateCheckpoint(dir string, cid ts.CID) (*CheckpointWriter, error) {
	if err := fault.Hit(FPCheckpointWrite); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return nil, err
	}
	c := newCheckpointWriter(f, cid)
	c.f = f
	return c, nil
}

// newCheckpointWriter starts the stream on w.
func newCheckpointWriter(w io.Writer, cid ts.CID) *CheckpointWriter {
	c := &CheckpointWriter{sum: crc32.New(crcTable)}
	c.w = bufio.NewWriterSize(io.MultiWriter(w, c.sum), 1<<16)
	c.w.WriteString(checkpointMagic)
	c.u64(uint64(cid))
	return c
}

// Table starts the next table.
func (c *CheckpointWriter) Table(id ts.TableID, name string, nextRID ts.RID) {
	c.u32(uint32(id))
	c.u32(uint32(len(name)))
	c.w.WriteString(name)
	c.u64(uint64(nextRID))
}

// Record appends one record of the current table. The image is copied
// before Record returns.
func (c *CheckpointWriter) Record(rid ts.RID, image []byte) {
	c.u64(uint64(rid))
	c.u32(uint32(len(image)))
	c.w.Write(image)
}

// EndTable ends the current table's records.
func (c *CheckpointWriter) EndTable() { c.u64(0) }

// Commit ends the stream with its CRC, syncs the temp file and renames it
// over the previous checkpoint.
func (c *CheckpointWriter) Commit() error {
	if err := c.end(); err != nil {
		return err
	}
	if err := fault.Hit(FPCheckpointSync); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	if err := c.f.Close(); err != nil {
		return err
	}
	if err := fault.Hit(FPCheckpointRename); err != nil {
		return err
	}
	return os.Rename(c.f.Name(), CheckpointPath(filepath.Dir(c.f.Name())))
}

// Abort closes and removes the temp file; after a Commit that renamed it,
// both fail harmlessly.
func (c *CheckpointWriter) Abort() {
	c.f.Close()
	os.Remove(c.f.Name())
}

// end writes the table terminator, then the CRC of everything before it.
func (c *CheckpointWriter) end() error {
	c.u32(0)
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.u32(c.sum.Sum32())
	return c.w.Flush()
}

func (c *CheckpointWriter) u32(v uint32) {
	c.w.Write(binary.LittleEndian.AppendUint32(c.w.AvailableBuffer(), v))
}

func (c *CheckpointWriter) u64(v uint64) {
	c.w.Write(binary.LittleEndian.AppendUint64(c.w.AvailableBuffer(), v))
}

// CheckpointReader decodes one checkpoint stream whose CRC has already been
// checked, so nothing is handed out of a corrupt checkpoint.
type CheckpointReader struct {
	// CID is the commit timestamp the checkpoint was taken at.
	CID  ts.CID
	r    *bufio.Reader
	left int64 // undecoded bytes before the trailer
	err  error
	buf  [8]byte
}

// NewCheckpointReader checks a checkpoint's magic, then its CRC in one pass
// over src, and returns a reader positioned at the first table.
func NewCheckpointReader(src io.ReadSeeker) (*CheckpointReader, error) {
	size, err := src.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = src.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	if _, err := io.ReadFull(src, magic[:]); err != nil {
		return nil, fmt.Errorf("wal: checkpoint magic: %w", err)
	}
	switch string(magic[:]) {
	case checkpointMagic:
	case retiredCheckpointMagic:
		return nil, fmt.Errorf("wal: checkpoint in the retired whole-body format (magic %q); this build reads only magic %q",
			retiredCheckpointMagic, checkpointMagic)
	default:
		return nil, fmt.Errorf("wal: bad checkpoint magic %q", magic[:])
	}
	h := crc32.New(crcTable)
	h.Write(magic[:])
	var sum [4]byte
	if _, err := io.CopyN(h, src, size-8); err != nil {
		return nil, fmt.Errorf("wal: checkpoint body: %w", err)
	}
	if _, err := io.ReadFull(src, sum[:]); err != nil {
		return nil, fmt.Errorf("wal: checkpoint trailer: %w", err)
	}
	if h.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
		return nil, errors.New("wal: checkpoint checksum mismatch")
	}
	if _, err := src.Seek(4, io.SeekStart); err != nil {
		return nil, err
	}
	c := &CheckpointReader{r: bufio.NewReaderSize(src, 1<<16), left: size - 8}
	c.CID = ts.CID(c.u64())
	return c, c.err
}

// Each decodes the rest of the stream, calling table for each table header
// and record for each of that table's records, in stream order. An image is
// freshly allocated and belongs to record. No name or image is allocated
// larger than the bytes left in the stream.
func (c *CheckpointReader) Each(table func(id ts.TableID, name string, nextRID ts.RID) error,
	record func(rid ts.RID, image []byte) error) error {
	for id := c.u32(); c.err == nil && id != 0; id = c.u32() {
		name := string(c.bytes(c.u32()))
		if next := c.u64(); c.err == nil {
			if err := table(ts.TableID(id), name, ts.RID(next)); err != nil {
				return err
			}
		}
		for rid := c.u64(); c.err == nil && rid != 0; rid = c.u64() {
			if img := c.bytes(c.u32()); c.err == nil {
				if err := record(ts.RID(rid), img); err != nil {
					return err
				}
			}
		}
	}
	if c.err == nil && c.left != 0 {
		c.err = fmt.Errorf("wal: %d trailing bytes in checkpoint", c.left)
	}
	return c.err
}

// need latches an error unless n more bytes are left before the trailer.
func (c *CheckpointReader) need(n int64) bool {
	if c.err == nil && n > c.left {
		c.err = fmt.Errorf("wal: checkpoint field of %d bytes with %d left", n, c.left)
	}
	return c.err == nil
}

// read fills b from the stream; after the first error it reads nothing.
func (c *CheckpointReader) read(b []byte) {
	if c.need(int64(len(b))) {
		_, c.err = io.ReadFull(c.r, b)
		c.left -= int64(len(b))
	}
}

func (c *CheckpointReader) u32() uint32 {
	c.read(c.buf[:4])
	return binary.LittleEndian.Uint32(c.buf[:4])
}

func (c *CheckpointReader) u64() uint64 {
	c.read(c.buf[:])
	return binary.LittleEndian.Uint64(c.buf[:])
}

// bytes reads an n-byte field, allocating only once n is known to fit.
func (c *CheckpointReader) bytes(n uint32) []byte {
	if !c.need(int64(n)) {
		return nil
	}
	b := make([]byte, n)
	c.read(b)
	return b
}
