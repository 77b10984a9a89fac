// Package table implements the table space of the HANA row store (§2.2): the
// catalog of tables and, per table, the records holding the oldest visible
// image of each row. The version space keeps newer images until garbage
// collection migrates them here. Each record carries the is_versioned flag
// that lets readers skip the RID hash table when a record has no chain.
//
// Records live inline in fixed-size pages addressed by RID, and a record
// holds its image inline as a data pointer and a length under a sequence
// word. A lookup is two index operations behind atomic loads and reading an
// image is three loads on the record: no lock, no hash, no allocation and no
// write to shared memory; migrating an image allocates nothing (DESIGN.md
// §10.4).
package table

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"hybridgc/internal/ts"
)

// Page geometry. A page is one heap object of pageSize 32-byte records plus
// a 24-byte header, which lands in Go's 18 KiB size class: 36 B per row, the
// whole cost of the table space per row beyond the image bytes. It is a
// constant and not a setting: nothing a caller knows would let it pick
// better, and the retirement rule below only needs "small against a table".
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Record.state holds the slot state in its low bits and the is_versioned
// flag above them. A slot only ever moves forward: empty → present by
// CreateRecord, present → dropped by DropRecord. RIDs are never reused, so a
// dropped slot stays dropped.
const (
	slotEmpty uint32 = iota
	slotPresent
	slotDropped

	slotMask      = 3
	flagVersioned = 4
)

// seqOdd is the low bit of the sequence half of Record.seq; the low half
// holds the image length. An image is at most 4 GiB, as everywhere it is
// framed (WAL records, checkpoints).
const seqOdd = 1 << 32

// Record is one row slot in the table space. Its image is the oldest
// retained version of the row; a nil image means the row's INSERT has not
// been migrated out of the version space yet (so readers that find no
// visible chain version treat the record as nonexistent).
type Record struct {
	// pg and slot are written once, before the page is linked into the
	// directory, and never again: every later read is ordered after them by
	// the atomic load that found the page.
	pg *page

	// data points at the image's first byte (nil for no image) and seq
	// packs a sequence number (high half) with the image's length (low
	// half). Writers serialise on the CAS that makes the sequence odd;
	// a reader that loads the same even seq before and after data holds a
	// pointer and a length that were stored together.
	data  atomic.Pointer[byte]
	seq   atomic.Uint64
	state atomic.Uint32
	slot  uint16
}

// page holds the records of one aligned run of pageSize RIDs.
type page struct {
	tbl  *Table
	base ts.RID // RID of recs[0]
	// counts packs the slots that ever left the empty state (high half) and
	// the slots currently present (low half) into one word, so one add moves
	// both and its result is a consistent view of the pair.
	counts atomic.Uint32
	recs   [pageSize]Record
}

const (
	countCreate = 1<<16 | 1      // one more used slot, one more present
	countDrop   = ^uint32(0)     // one fewer present
	countDead   = pageSize << 16 // every slot used, none present
)

// maxRID bounds explicit-RID creation so that a damaged log cannot make the
// directory (8 bytes per page) allocate without limit: 1 GiB at most.
const maxRID = 1 << 36

// slot returns the slot of rid, which must lie in the page's RID range.
func (p *page) slot(rid ts.RID) *Record { return &p.recs[(uint64(rid)-1)&pageMask] }

// count applies one slot transition to the page's counters, and retires the
// page if that was the transition that left it dead.
func (p *page) count(delta uint32) {
	if p.counts.Add(delta) == countDead {
		p.tbl.retire(pageIndex(p.base))
	}
}

// retired stands in the directory for a page that was unlinked. Its slots
// are all empty, so Get needs no special case for it; CreateRecord and the
// page walkers compare against it.
var retired = new(page)

// Key returns the record's (table, RID) identity.
func (r *Record) Key() ts.RecordKey { return ts.RecordKey{Table: r.pg.tbl.ID, RID: r.RID()} }

// RID returns the record's identifier within its table.
func (r *Record) RID() ts.RID { return r.pg.base + ts.RID(r.slot) }

// Image returns the current table-space image, or nil when the row has no
// migrated image yet. The slice's capacity is its length.
func (r *Record) Image() []byte {
	for {
		s := r.seq.Load()
		p := r.data.Load()
		if s&seqOdd == 0 && r.seq.Load() == s {
			// A nil data pointer is always stored with length 0.
			return unsafe.Slice(p, uint32(s))
		}
		runtime.Gosched()
	}
}

// setImage stores img as the record's image. It allocates nothing: the
// record keeps img's data pointer, not a copy of its slice header.
func (r *Record) setImage(img []byte) {
	s := r.seq.Load()
	for s&seqOdd != 0 || !r.seq.CompareAndSwap(s, s+seqOdd) {
		runtime.Gosched()
		s = r.seq.Load()
	}
	r.data.Store(unsafe.SliceData(img))
	r.seq.Store(s&^(seqOdd-1) + 2*seqOdd | uint64(uint32(len(img))))
}

// Versioned reports the is_versioned flag: whether the record has a version
// chain in the version space that readers must consult.
func (r *Record) Versioned() bool { return r.state.Load()&flagVersioned != 0 }

// Dropped reports whether the record has been removed from its table.
func (r *Record) Dropped() bool { return r.state.Load()&slotMask == slotDropped }

// InstallImage implements mvcc.RecordRef: garbage collection migrates the
// newest reclaimable image into the table space.
func (r *Record) InstallImage(img []byte) {
	r.setImage(img)
	r.pg.tbl.notifyWrite(r.RID())
}

// DropRecord implements mvcc.RecordRef: a migrated DELETE (or a rolled-back
// INSERT) removes the row from the table space. Dropping twice is harmless.
// Holders of the *Record (a version chain being unlinked) may keep using it:
// the pointer keeps its page alive even after the page is retired.
func (r *Record) DropRecord() {
	for {
		s := r.state.Load()
		if s&slotMask != slotPresent {
			return
		}
		if r.state.CompareAndSwap(s, s&^slotMask|slotDropped) {
			break
		}
	}
	r.setImage(nil)
	t := r.pg.tbl
	t.live.Add(-1)
	r.pg.count(countDrop)
	t.notifyWrite(r.RID())
}

// SetVersioned implements mvcc.RecordRef.
func (r *Record) SetVersioned(v bool) {
	for {
		s := r.state.Load()
		n := s &^ flagVersioned
		if v {
			n |= flagVersioned
		}
		if n == s || r.state.CompareAndSwap(s, n) {
			break
		}
	}
	r.pg.tbl.notifyWrite(r.RID())
}

// Table is one table's slice of the table space. RIDs are allocated densely
// from 1 so scans can walk the RID range in order.
type Table struct {
	ID   ts.TableID
	Name string

	// dir maps page index → page. Readers load it and index; every store —
	// into an entry or of a grown copy — happens under dirMu, so a copy
	// never loses an entry. Entries go nil → page → retired. The directory
	// only grows: 8 bytes per pageSize RIDs ever allocated.
	dir atomic.Pointer[[]atomic.Pointer[page]]
	// partitions is the partition count; 0 means unpartitioned. Records are
	// assigned round-robin by RID, so a partition is a deterministic RID
	// residue class — enough structure for partition pruning and
	// partition-scoped garbage collection.
	partitions atomic.Uint32

	// writeObs, when installed, observes every mutation of the table space —
	// version-chain flag flips, image installs by garbage collection, record
	// drops — with the affected RID. The HTAP column lane uses it to keep a
	// sticky dirty set over chunk-covered rows; it fires under the chain
	// latch, so observers must be cheap and must not re-enter the engine.
	writeObs atomic.Pointer[func(ts.RID)]

	// The pad keeps what every insert and drop writes off the line every
	// lookup loads dir (and every Record.Key the table ID) from.
	_       [64]byte
	dirMu   sync.Mutex
	nextRID atomic.Uint64
	live    atomic.Int64
}

func newTable(id ts.TableID, name string) *Table {
	t := &Table{ID: id, Name: name}
	t.dir.Store(new([]atomic.Pointer[page]))
	return t
}

// SetWriteObserver installs fn as the table's write observer (nil removes
// it). At most one observer is supported; installing replaces any previous
// one.
func (t *Table) SetWriteObserver(fn func(ts.RID)) {
	if fn == nil {
		t.writeObs.Store(nil)
		return
	}
	t.writeObs.Store(&fn)
}

// notifyWrite fires the write observer, if any, for rid.
func (t *Table) notifyWrite(rid ts.RID) {
	if p := t.writeObs.Load(); p != nil {
		(*p)(rid)
	}
}

// SetPartitions declares the table partitioned into n parts (n >= 2).
// Partitioning is logical: it changes how scopes and horizons are computed,
// not where records live.
func (t *Table) SetPartitions(n int) {
	if n >= 2 {
		t.partitions.Store(uint32(n))
	}
}

// Partitions returns the partition count (0 = unpartitioned).
func (t *Table) Partitions() int { return int(t.partitions.Load()) }

// PartitionOf maps a RID to its partition. Only meaningful when the table
// is partitioned.
func (t *Table) PartitionOf(rid ts.RID) ts.PartitionID {
	n := t.partitions.Load()
	if n == 0 {
		return 0
	}
	return ts.PartitionID(uint64(rid-1) % uint64(n))
}

// AllocRID returns a fresh record identifier.
func (t *Table) AllocRID() ts.RID {
	return ts.RID(t.nextRID.Add(1))
}

// EnsureNextRID raises the RID allocator to at least n. Recovery calls this
// while replaying inserts so post-recovery allocations never collide.
func (t *Table) EnsureNextRID(n ts.RID) {
	for {
		cur := t.nextRID.Load()
		if cur >= uint64(n) {
			return
		}
		if t.nextRID.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// MaxRID returns the highest RID ever allocated (scans iterate 1..MaxRID).
func (t *Table) MaxRID() ts.RID { return ts.RID(t.nextRID.Load()) }

// Len returns the number of records currently present (including rows whose
// INSERT is still unmigrated, which readers may not see yet).
func (t *Table) Len() int { return int(t.live.Load()) }

// pageIndex returns the directory index of rid's page. RID 0 wraps to an
// index no directory reaches.
func pageIndex(rid ts.RID) uint64 { return (uint64(rid) - 1) >> pageShift }

// Get returns the record for rid, or nil.
func (t *Table) Get(rid ts.RID) *Record {
	dir := *t.dir.Load()
	pi := pageIndex(rid)
	if pi >= uint64(len(dir)) {
		return nil
	}
	p := dir[pi].Load()
	if p == nil {
		return nil
	}
	r := p.slot(rid)
	if r.state.Load()&slotMask != slotPresent {
		return nil
	}
	return r
}

// CreateRecord installs an empty record slot for rid. It fails if the RID is
// or ever was occupied — the engine allocates RIDs and never reuses one, so
// a collision is a bug or a write-write race the caller must surface. The
// RID need not come from AllocRID: recovery and replica apply create records
// under the RIDs the log names, in log order.
func (t *Table) CreateRecord(rid ts.RID) (*Record, error) {
	if rid == 0 || uint64(rid) > maxRID {
		return nil, fmt.Errorf("table %s: RID %d out of range", t.Name, rid)
	}
	p := t.pageFor(pageIndex(rid))
	r := p.slot(rid)
	if p == retired || !r.state.CompareAndSwap(slotEmpty, slotPresent) {
		return nil, fmt.Errorf("table %s: RID %d already exists", t.Name, rid)
	}
	t.live.Add(1)
	// A concurrent Get may hand the record out, and its holder drop it,
	// before this count; then this one is the count that completes the page.
	p.count(countCreate)
	return r, nil
}

// pageFor returns the directory entry for page index pi, linking a fresh
// page (and growing the directory) when there is none yet.
func (t *Table) pageFor(pi uint64) *page {
	if dir := *t.dir.Load(); pi < uint64(len(dir)) {
		if p := dir[pi].Load(); p != nil {
			return p
		}
	}
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	dir := *t.dir.Load()
	if pi >= uint64(len(dir)) {
		grown := make([]atomic.Pointer[page], max(2*uint64(len(dir)), pi+1, 8))
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		dir = grown
		t.dir.Store(&grown)
	}
	p := dir[pi].Load()
	if p == nil {
		p = &page{tbl: t, base: ts.RID(pi<<pageShift) + 1}
		for i := range p.recs {
			p.recs[i].pg = p
			p.recs[i].slot = uint16(i)
		}
		// The store publishes the initialised page: whoever loads it from
		// the directory reads base, pg and slot without a race.
		dir[pi].Store(p)
	}
	return p
}

// retire unlinks a page whose every RID was created and dropped again
// (NEW-ORDER's insert-then-deliver churn), so the table space holds pages in
// proportion to live records and not to RIDs ever allocated. A page with a
// RID that was never created — a hole recovery or replica apply left because
// the allocating transaction aborted before it was logged — stays linked.
func (t *Table) retire(pi uint64) {
	t.dirMu.Lock()
	(*t.dir.Load())[pi].Store(retired)
	t.dirMu.Unlock()
}

// ForEach visits records in ascending RID order until fn returns false.
func (t *Table) ForEach(fn func(*Record) bool) { t.Range(1, t.MaxRID(), fn) }

// Range visits the records with from <= RID <= to in ascending RID order
// until fn returns false, and reports whether it reached the end. It walks
// the pages directly and steps over unlinked ones whole. Callers bound to by
// a MaxRID read before the call: a record created before that read had its
// page linked earlier still, so the directory loaded here holds it. A record
// created during the walk may or may not be visited.
func (t *Table) Range(from, to ts.RID, fn func(*Record) bool) bool {
	dir := *t.dir.Load()
	end := min(uint64(to), uint64(len(dir))<<pageShift)
	for i := uint64(max(from, 1)) - 1; i < end; {
		pageEnd := (i>>pageShift + 1) << pageShift
		p := dir[i>>pageShift].Load()
		if p == nil || p == retired {
			i = pageEnd
			continue
		}
		for stop := min(pageEnd, end); i < stop; i++ {
			r := &p.recs[i&pageMask]
			if r.state.Load()&slotMask == slotPresent && !fn(r) {
				return false
			}
		}
	}
	return true
}

// Catalog names and numbers the tables of one database. Lookups read an
// immutable snapshot through one atomic load; DDL, which is rare, copies the
// snapshot under mu and publishes the copy.
type Catalog struct {
	mu    sync.Mutex // serialises writers
	state atomic.Pointer[catalogState]
}

// catalogState is one immutable version of the catalog. byID is indexed by
// TableID (slot 0 unused, gaps nil).
type catalogState struct {
	byID   []*Table
	byName map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.state.Store(&catalogState{byID: []*Table{nil}, byName: map[string]*Table{}})
	return c
}

// add publishes a copy of the catalog with t registered. Caller holds mu and
// has checked for duplicates.
func (c *Catalog) add(t *Table) {
	old := c.state.Load()
	next := &catalogState{
		byID:   make([]*Table, max(len(old.byID), int(t.ID)+1)),
		byName: make(map[string]*Table, len(old.byName)+1),
	}
	copy(next.byID, old.byID)
	for name, tbl := range old.byName {
		next.byName[name] = tbl
	}
	next.byID[t.ID] = t
	next.byName[t.Name] = t
	c.state.Store(next)
}

// Create registers a new table under name.
func (c *Catalog) Create(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state.Load()
	if s.byName[name] != nil {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := newTable(ts.TableID(len(s.byID)), name)
	c.add(t)
	return t, nil
}

// Restore registers a table under an explicit ID, for recovery from a
// checkpoint or log. The catalog's ID allocator advances past id.
func (c *Catalog) Restore(id ts.TableID, name string) (*Table, error) {
	if id == 0 {
		return nil, fmt.Errorf("catalog: cannot restore table %q with ID 0", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state.Load()
	if s.byName[name] != nil {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if int(id) < len(s.byID) && s.byID[id] != nil {
		return nil, fmt.Errorf("catalog: table ID %d already exists", id)
	}
	t := newTable(id, name)
	c.add(t)
	return t, nil
}

// ByName returns the table called name, or nil.
func (c *Catalog) ByName(name string) *Table { return c.state.Load().byName[name] }

// ByID returns the table with the given ID, or nil.
func (c *Catalog) ByID(id ts.TableID) *Table {
	byID := c.state.Load().byID
	if uint64(id) >= uint64(len(byID)) {
		return nil
	}
	return byID[id]
}

// Tables returns all tables in creation (ID) order.
func (c *Catalog) Tables() []*Table {
	byID := c.state.Load().byID
	out := make([]*Table, 0, len(byID))
	for _, t := range byID {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
