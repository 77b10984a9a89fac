// Package htap is the HTAP column lane over the row-store engine: a
// background migrator that ships settled row versions — versions already
// below the garbage-collection horizon, whose table-space image is the one
// every registered snapshot sees — into immutable, dictionary-encoded
// column chunks, plus a vectorized aggregate executor (exec.go) that scans
// the chunks and falls back to MVCC row reads for everything the chunks
// cannot vouch for.
//
// This is §2.1's row/column split made concrete under one MVCC engine: OLTP
// keeps writing row versions; the lane turns the settled tail of each table
// into columnar main storage; OLAP aggregates run over the vectors at
// memory speed while the un-migrated delta tail and any row the chunks no
// longer speak for (the dirty set) go through ordinary snapshot reads.
//
// The consistency contract, per table:
//
//   - Every chunk is stamped with a watermark W, the timestamp of a
//     statement snapshot the migrator REGISTERED and held for the whole
//     build. Registration pins the garbage-collection horizon at or below
//     W, so nothing the build reads is reshaped underneath it.
//   - Only settled rows enter a chunk: a row that still has a version chain
//     is skipped and marked dirty, because some registered snapshot may
//     still need an older (or not-yet-committed newer) version — the
//     migrator never migrates a version another snapshot may still
//     need. This is the visibility guard; htap_test.go proves both
//     directions (guard on: pinned cursors block migration; guard
//     reverted: a scan observes a wrong aggregate).
//   - A write observer on the table space keeps a sticky per-RID dirty set:
//     any mutation of a chunk-covered row (new version, GC settle, drop)
//     dirties it, and dirty rows are served by row reads until a later
//     rebuild re-settles them. The observer bound (coverTarget) is
//     published BEFORE the build reads anything, closing the race with
//     concurrent writers.
//   - A scan at snapshot TS serves a chunk's present, clean slots from the
//     vectors iff TS >= the chunk's watermark; otherwise (a snapshot older
//     than the chunk) the whole range falls back to row reads.
//
// Neither chunks nor lanes are persisted here. Which tables have a lane is
// a row of the SQL catalog (sql.Catalog.EnableHTAP), so it recovers,
// checkpoints and replicates as ordinary data; the catalog re-enables each
// listed lane when a manager is attached, and the migrator rebuilds chunks
// from the recovered table state.
package htap

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Errors returned by the lane.
var (
	// ErrNoLane reports an aggregate or migration request for a table with
	// no enabled column lane.
	ErrNoLane = errors.New("htap: no column lane enabled for table")
	// ErrLaneExists reports EnableTable on a table that already has a lane
	// with a different schema.
	ErrLaneExists = errors.New("htap: lane already enabled with a different schema")
)

// Config tunes a Store.
type Config struct {
	// Interval is the background migrator period (<=0 selects 25ms).
	Interval time.Duration
	// ChunkSlots is the RID range length of one chunk (<=0 selects 4096).
	ChunkSlots int
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.ChunkSlots <= 0 {
		c.ChunkSlots = 4096
	}
}

// laneChunk is one sealed chunk plus the RID the build actually considered
// rows through: slots above builtThrough existed as range but not as rows
// at build time, and the executor row-reads them until a rebuild extends
// the chunk.
type laneChunk struct {
	chunk        *colstore.Chunk
	builtThrough ts.RID
}

// Lane is one table's column lane.
type Lane struct {
	tid    ts.TableID
	schema colstore.Schema

	// coverTarget is the observer bound: writes to RIDs <= coverTarget mark
	// the dirty set. Published at the START of a migrator pass, before any
	// row is read, so a concurrent writer cannot slip a mutation between
	// the build's read and the chunk swap unobserved. Fresh inserts (RID
	// beyond it) are skipped with one atomic load — the OLTP fast path.
	coverTarget atomic.Uint64
	// coveredHi is the RID range chunks authoritatively cover, advanced at
	// the END of a completed pass. rid <= coveredHi: chunk slot (or dirty /
	// row fallback); rid > coveredHi: delta tail, always row-read.
	coveredHi atomic.Uint64

	mu     sync.RWMutex // guards chunks (swapped whole on rebuild)
	chunks []laneChunk

	// dirty maps a chunk-covered RID whose chunk value can no longer be
	// trusted to a monotonically increasing stamp. The stamp lets the
	// migrator clear a flag only if no write arrived after it read the row:
	// clears happen strictly AFTER the chunk swap, so a scan that copies
	// the dirty set before the chunk list can never pair an old chunk with
	// a shrunken dirty set (the stale-read race the stamp protocol closes).
	dirtyMu  sync.Mutex
	dirty    map[ts.RID]uint64
	dirtyCtr uint64

	// Counters surfaced through LaneStats.
	migratedRows  atomic.Int64
	rebuilds      atomic.Int64
	passes        atomic.Int64
	dictOverflows atomic.Int64
	decodeErrors  atomic.Int64
}

// markDirty is the write-observer slow path: the row is chunk-covered (or
// about to be), so its chunk value can no longer be trusted. Each mark
// bumps the stamp so an in-flight migrator pass cannot clear the flag for
// a write it did not read.
func (l *Lane) markDirty(rid ts.RID) {
	l.dirtyMu.Lock()
	l.dirtyCtr++
	l.dirty[rid] = l.dirtyCtr
	l.dirtyMu.Unlock()
}

// dirtyStamp returns rid's current stamp (0: clean).
func (l *Lane) dirtyStamp(rid ts.RID) uint64 {
	l.dirtyMu.Lock()
	s := l.dirty[rid]
	l.dirtyMu.Unlock()
	return s
}

// clearIfStamp clears rid's dirty flag iff no write stamped it since the
// migrator read the row. Called only after the chunk swap.
func (l *Lane) clearIfStamp(rid ts.RID, stamp uint64) {
	l.dirtyMu.Lock()
	if l.dirty[rid] == stamp {
		delete(l.dirty, rid)
	}
	l.dirtyMu.Unlock()
}

// dirtySnapshot copies the dirty set for one scan.
func (l *Lane) dirtySnapshot() map[ts.RID]struct{} {
	l.dirtyMu.Lock()
	defer l.dirtyMu.Unlock()
	if len(l.dirty) == 0 {
		return nil
	}
	out := make(map[ts.RID]struct{}, len(l.dirty))
	for rid := range l.dirty {
		out[rid] = struct{}{}
	}
	return out
}

func (l *Lane) dirtyLen() int {
	l.dirtyMu.Lock()
	defer l.dirtyMu.Unlock()
	return len(l.dirty)
}

// snapshotChunks returns the current sealed chunk list.
func (l *Lane) snapshotChunks() []laneChunk {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.chunks
}

// Store runs the column lane over one engine instance (one shard). Lanes
// are enabled per table; one background goroutine migrates all of them.
type Store struct {
	db  *core.DB
	cfg Config

	mu    sync.RWMutex
	lanes map[ts.TableID]*Lane

	stop chan struct{}
	done chan struct{}

	// guardOff disables the visibility guard — the migrator then treats
	// still-chained rows as settled, reading them at the build watermark
	// and NOT marking them dirty. Only the guard-regression test sets it;
	// with it on, a version still visible to a registered snapshot can be
	// migrated over, which is exactly the bug the guard exists to prevent.
	guardOff atomic.Bool
}

// NewStore builds a lane store over db with no lane enabled.
func NewStore(db *core.DB, cfg Config) *Store {
	cfg.fill()
	return &Store{db: db, cfg: cfg, lanes: make(map[ts.TableID]*Lane)}
}

// EnableTable enables the column lane for a table in memory: installs the
// write observer and leaves chunk building to the migrator. Idempotent for
// an identical schema.
func (s *Store) EnableTable(tid ts.TableID, schema colstore.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if l := s.lanes[tid]; l != nil {
		s.mu.Unlock()
		if l.schema.Spec() != schema.Spec() {
			return fmt.Errorf("%w: table %d has %q, requested %q", ErrLaneExists, tid, l.schema.Spec(), schema.Spec())
		}
		return nil
	}
	lane := &Lane{tid: tid, schema: schema, dirty: make(map[ts.RID]uint64)}
	s.lanes[tid] = lane
	s.mu.Unlock()

	if err := s.db.ObserveTableWrites(tid, func(rid ts.RID) {
		if uint64(rid) <= lane.coverTarget.Load() {
			lane.markDirty(rid)
		}
	}); err != nil {
		s.mu.Lock()
		delete(s.lanes, tid)
		s.mu.Unlock()
		return err
	}
	return nil
}

// lane returns the table's lane, or nil.
func (s *Store) lane(tid ts.TableID) *Lane {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lanes[tid]
}

// Enabled reports whether the table has a column lane.
func (s *Store) Enabled(tid ts.TableID) bool { return s.lane(tid) != nil }

// Tables lists the lane-enabled tables in ID order.
func (s *Store) Tables() []ts.TableID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ts.TableID, 0, len(s.lanes))
	for tid := range s.lanes {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Start launches the background migrator. Stop ends it.
func (s *Store) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.run(s.stop, s.done)
}

// Stop halts the background migrator and waits for the in-flight pass.
func (s *Store) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (s *Store) run(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.Migrate()
		case <-stop:
			return
		}
	}
}

// Migrate runs one migration pass over every lane (the manual form the
// background loop calls periodically; tests call it directly).
// It returns the number of rows newly placed into chunks.
func (s *Store) Migrate() int {
	s.mu.RLock()
	lanes := make([]*Lane, 0, len(s.lanes))
	for _, l := range s.lanes {
		lanes = append(lanes, l)
	}
	s.mu.RUnlock()
	total := 0
	for _, l := range lanes {
		total += s.migrateLane(l)
	}
	return total
}

// migrateLane runs one pass for one lane: publish the observer bound,
// register the build snapshot (the watermark), build or rebuild every chunk
// that needs it, swap, advance coveredHi.
func (s *Store) migrateLane(l *Lane) int {
	maxRID, err := s.db.TableMaxRID(l.tid)
	if err != nil || maxRID == 0 {
		return 0
	}
	// Publish the observer bound before reading anything: from here on,
	// every mutation of a row the pass may read lands in the dirty set.
	if cur := l.coverTarget.Load(); cur < uint64(maxRID) {
		l.coverTarget.Store(uint64(maxRID))
	}

	// The build snapshot. Registering it pins this table's GC horizon at or
	// below W for the whole build: the settled images the pass reads are
	// exactly the versions visible at W, and nothing reshapes them
	// mid-build.
	snap := s.db.Manager().AcquireSnapshot(txn.KindStatement, []ts.TableID{l.tid})
	defer snap.Release()
	w := snap.TS()

	old := l.snapshotChunks()
	slots := ts.RID(s.cfg.ChunkSlots)
	nChunks := int((maxRID + slots - 1) / slots)

	// Bucket the dirty set by chunk index to decide rebuilds cheaply.
	dirtyByChunk := make(map[int][]ts.RID)
	l.dirtyMu.Lock()
	for rid := range l.dirty {
		i := int((rid - 1) / slots)
		dirtyByChunk[i] = append(dirtyByChunk[i], rid)
	}
	l.dirtyMu.Unlock()

	next := make([]laneChunk, nChunks)
	migrated := 0
	changed := false
	var clears []ridStamp
	for i := 0; i < nChunks; i++ {
		base := ts.RID(i)*slots + 1
		end := base + slots - 1
		if end > maxRID {
			end = maxRID
		}
		if i < len(old) {
			lc := old[i]
			// Keep a sealed chunk as-is unless the table grew into its
			// range or one of its dirty rows has settled. A rebuild would
			// mark a still-versioned row dirty again, and a dirty row is
			// served from the row store meanwhile.
			settled := s.guardOff.Load() && len(dirtyByChunk[i]) > 0
			for _, rid := range dirtyByChunk[i] {
				_, versioned, _ := s.db.RecordState(l.tid, rid)
				settled = settled || !versioned
			}
			if lc.builtThrough >= end && !settled {
				next[i] = lc
				continue
			}
		}
		lc, n, cl := s.buildChunk(l, base, end, w)
		if lc.chunk == nil {
			// Builder setup failed (cannot happen with a validated schema);
			// leave the range to the row path.
			if i < len(old) {
				next[i] = old[i]
			}
			continue
		}
		next[i] = lc
		migrated += n
		clears = append(clears, cl...)
		changed = true
		l.rebuilds.Add(1)
	}

	l.passes.Add(1)
	if !changed && uint64(maxRID) <= l.coveredHi.Load() {
		return 0
	}
	l.mu.Lock()
	l.chunks = next
	l.mu.Unlock()
	l.coveredHi.Store(uint64(maxRID))
	// Only now — after the swap — may dirty flags fall, and only for rows
	// no write stamped since the build read them. A scan that copied the
	// dirty set before this point pairs it with the old chunks (row path:
	// always correct); one that copies it after sees the new chunks.
	for _, c := range clears {
		l.clearIfStamp(c.rid, c.stamp)
	}
	l.migratedRows.Add(int64(migrated))
	return migrated
}

// ridStamp is a deferred dirty-clear: rid may be cleaned iff its stamp is
// still the one the build observed.
type ridStamp struct {
	rid   ts.RID
	stamp uint64
}

// buildChunk settles one RID range into a fresh chunk at watermark w,
// returning it, the number of rows placed, and the deferred dirty-clears
// the caller applies after the swap.
func (s *Store) buildChunk(l *Lane, base, end ts.RID, w ts.CID) (laneChunk, int, []ridStamp) {
	b, err := colstore.NewChunkBuilder(l.schema, base, s.cfg.ChunkSlots, colstore.DefaultMaxDictSize)
	if err != nil {
		return laneChunk{}, 0, nil
	}
	placed := 0
	var clears []ridStamp
	for rid := base; rid <= end; rid++ {
		// Record the dirty stamp BEFORE reading the row: a write landing
		// after the read bumps the stamp, and the deferred clear backs off.
		stamp := l.dirtyStamp(rid)
		img, versioned, ok := s.db.RecordState(l.tid, rid)
		if !ok {
			// Hole or dropped row: the chunk slot is authoritatively absent.
			if stamp != 0 {
				clears = append(clears, ridStamp{rid, stamp})
			}
			continue
		}
		if versioned {
			// THE VISIBILITY GUARD. The row still has a version chain: its
			// table-space image is not the final word — a registered
			// snapshot (a pinned cursor, an old transaction) may still need
			// a chain version, or the chain may hold a newer version this
			// build's watermark must not leak past. Leave the row to the
			// MVCC row path and let a later pass migrate it once the
			// garbage collector has settled the chain below the horizon.
			if !s.guardOff.Load() {
				l.markDirty(rid)
				continue
			}
			// Guard reverted (test-only): migrate whatever is visible at
			// the build watermark and pretend the row is settled.
			img, ok = s.db.ReadAt(l.tid, rid, w)
			if !ok {
				continue
			}
		}
		row, err := colstore.DecodeRow(l.schema, img)
		if err != nil {
			l.decodeErrors.Add(1)
			l.markDirty(rid)
			continue
		}
		if err := b.Set(rid, row); err != nil {
			if errors.Is(err, colstore.ErrDictOverflow) {
				l.dictOverflows.Add(1)
			}
			l.markDirty(rid)
			continue
		}
		placed++
		if stamp != 0 {
			clears = append(clears, ridStamp{rid, stamp})
		}
	}
	return laneChunk{chunk: b.Seal(w), builtThrough: end}, placed, clears
}

// LaneStats is a point-in-time view of one lane.
type LaneStats struct {
	Table ts.TableID
	// Chunks and ChunkRows describe sealed columnar coverage.
	Chunks    int
	ChunkRows int64
	// CoveredRID is the RID range chunks authoritatively cover; DeltaRows
	// is the un-migrated tail beyond it (MaxRID - CoveredRID).
	CoveredRID ts.RID
	DeltaRows  int64
	// DirtyRows is the sticky dirty set size — chunk-covered rows currently
	// served by the row path.
	DirtyRows int64
	// Watermark is the oldest chunk watermark; Lag is the current commit
	// timestamp minus it — how far the columnar image trails the log.
	Watermark ts.CID
	Lag       ts.CID
	// MigratedRows counts rows ever placed into chunks; Rebuilds counts
	// chunk (re)builds; Passes counts migrator passes.
	MigratedRows  int64
	Rebuilds      int64
	Passes        int64
	DictOverflows int64
	DecodeErrors  int64
}

// Stats reports every lane's state, in table-ID order.
func (s *Store) Stats() []LaneStats {
	cur := s.db.Manager().CurrentTS()
	var out []LaneStats
	for _, tid := range s.Tables() {
		l := s.lane(tid)
		if l == nil {
			continue
		}
		st := LaneStats{
			Table:         tid,
			CoveredRID:    ts.RID(l.coveredHi.Load()),
			DirtyRows:     int64(l.dirtyLen()),
			MigratedRows:  l.migratedRows.Load(),
			Rebuilds:      l.rebuilds.Load(),
			Passes:        l.passes.Load(),
			DictOverflows: l.dictOverflows.Load(),
			DecodeErrors:  l.decodeErrors.Load(),
		}
		for _, lc := range l.snapshotChunks() {
			st.Chunks++
			st.ChunkRows += int64(lc.chunk.Rows())
			if w := lc.chunk.Watermark(); st.Watermark == 0 || w < st.Watermark {
				st.Watermark = w
			}
		}
		if maxRID, err := s.db.TableMaxRID(tid); err == nil && maxRID > st.CoveredRID {
			st.DeltaRows = int64(maxRID - st.CoveredRID)
		}
		if st.Watermark > 0 && cur > st.Watermark {
			st.Lag = cur - st.Watermark
		}
		out = append(out, st)
	}
	return out
}
