package txn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
)

type nopRecord struct{ versioned bool }

func (r *nopRecord) InstallImage([]byte) {}
func (r *nopRecord) DropRecord()         {}
func (r *nopRecord) SetVersioned(v bool) { r.versioned = v }

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(mvcc.NewSpace(256), sts.NewRegistry(), cfg)
	t.Cleanup(m.Close)
	return m
}

// write links one update version for (table 1, rid) into the version space
// on behalf of txn.
func write(t *testing.T, m *Manager, txn *Txn, rec mvcc.RecordRef, rid uint64, img string) error {
	t.Helper()
	v := mvcc.NewVersion(mvcc.OpUpdate, ts.RecordKey{Table: 1, RID: ts.RID(rid)}, []byte(img), txn.Context())
	txn.Context().Add(v)
	_, err := m.Space().Prepend(rec, v, txn.ConflictCheck())
	return err
}

func TestCommitAssignsMonotonicCIDs(t *testing.T) {
	m := newTestManager(t, Config{})
	rec := &nopRecord{}
	var last ts.CID
	for i := 0; i < 10; i++ {
		txn := m.Begin(StmtSI, nil)
		if err := write(t, m, txn, rec, uint64(i), "x"); err != nil {
			t.Fatal(err)
		}
		cid, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if cid <= last {
			t.Fatalf("CID %d not monotonic after %d", cid, last)
		}
		last = cid
	}
	if m.CurrentTS() != last {
		t.Fatalf("CurrentTS = %d, want %d", m.CurrentTS(), last)
	}
	st := m.Stats()
	if st.TxnsCommitted != 10 || st.GroupsCommitted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGroupCommitShareSingleCID(t *testing.T) {
	m := newTestManager(t, Config{GroupCommitWindow: 20 * time.Millisecond, GroupCommitMaxBatch: 32})
	const n = 16
	cidCh := make(chan ts.CID, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rid uint64) {
			defer wg.Done()
			txn := m.Begin(StmtSI, nil)
			if err := write(t, m, txn, &nopRecord{}, rid, "x"); err != nil {
				t.Error(err)
				return
			}
			cid, err := txn.Commit()
			if err != nil {
				t.Error(err)
				return
			}
			// Leader or follower, a member has stamped its own versions by
			// the time Commit returns.
			vs := txn.Context().Versions()
			for i := range vs {
				if v := vs[i].Load(); v != nil && !v.Propagated() {
					t.Errorf("version %v not stamped when Commit returned", v)
				}
			}
			cidCh <- cid
		}(uint64(i))
	}
	wg.Wait()
	close(cidCh)
	distinct := map[ts.CID]bool{}
	for c := range cidCh {
		distinct[c] = true
	}
	if got := m.Stats().Propagated; got != n {
		t.Fatalf("Propagated = %d, want %d", got, n)
	}
	groups := m.Stats().GroupsCommitted
	if int64(len(distinct)) != groups {
		t.Fatalf("distinct CIDs %d != groups %d", len(distinct), groups)
	}
	if len(distinct) == n {
		t.Logf("no batching happened (%d groups for %d txns) — timing-dependent, not fatal", len(distinct), n)
	}
	// The group list must hold the groups in CID order.
	var prev ts.CID
	m.Space().Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		if g.CID() <= prev {
			t.Errorf("group list out of order: %d after %d", g.CID(), prev)
		}
		prev = g.CID()
		return true
	})
}

func TestReadOnlyCommit(t *testing.T) {
	m := newTestManager(t, Config{})
	txn := m.Begin(TransSI, nil)
	if m.View().Len() != 1 {
		t.Fatal("Trans-SI begin must register a snapshot")
	}
	cid, err := txn.Commit()
	if err != nil || cid != ts.Invalid {
		t.Fatalf("read-only commit = %d,%v", cid, err)
	}
	if m.View().Len() != 0 {
		t.Fatal("snapshot must be released at commit")
	}
	if _, err := txn.Commit(); err != ErrNotActive {
		t.Fatalf("double commit = %v, want ErrNotActive", err)
	}
}

func TestTransSISnapshotPinsHorizon(t *testing.T) {
	m := newTestManager(t, Config{})
	rec := &nopRecord{}

	// Commit something to advance the timestamp.
	w := m.Begin(StmtSI, nil)
	if err := write(t, m, w, rec, 1, "a"); err != nil {
		t.Fatal(err)
	}
	cid1, _ := w.Commit()

	long := m.Begin(TransSI, nil)
	if long.Snapshot().TS() != cid1 {
		t.Fatalf("snapshot ts = %d, want %d", long.Snapshot().TS(), cid1)
	}
	// More commits advance CurrentTS but not the horizon.
	w2 := m.Begin(StmtSI, nil)
	if err := write(t, m, w2, rec, 2, "b"); err != nil {
		t.Fatal(err)
	}
	w2.Commit()
	if h := m.View().Horizon(); h != cid1 {
		t.Fatalf("horizon = %d, want pinned at %d", h, cid1)
	}
	long.Commit()
	if h := m.View().Horizon(); h != m.CurrentTS()+1 {
		t.Fatalf("horizon after release = %d, want %d", h, m.CurrentTS()+1)
	}
}

func TestWriteConflictUncommitted(t *testing.T) {
	m := newTestManager(t, Config{})
	rec := &nopRecord{}
	t1 := m.Begin(StmtSI, nil)
	t2 := m.Begin(StmtSI, nil)
	if err := write(t, m, t1, rec, 1, "t1"); err != nil {
		t.Fatal(err)
	}
	if err := write(t, m, t2, rec, 1, "t2"); err != ErrWriteConflict {
		t.Fatalf("concurrent write = %v, want ErrWriteConflict", err)
	}
	// Own second write is fine.
	if err := write(t, m, t1, rec, 1, "t1b"); err != nil {
		t.Fatalf("own re-write failed: %v", err)
	}
	t1.Abort()
	// After abort the record is writable again.
	if err := write(t, m, t2, rec, 1, "t2b"); err != nil {
		t.Fatalf("write after abort failed: %v", err)
	}
}

func TestFirstCommitterWinsUnderTransSI(t *testing.T) {
	m := newTestManager(t, Config{})
	rec := &nopRecord{}
	seed := m.Begin(StmtSI, nil)
	if err := write(t, m, seed, rec, 1, "v0"); err != nil {
		t.Fatal(err)
	}
	seed.Commit()

	reader := m.Begin(TransSI, nil) // snapshot here
	other := m.Begin(StmtSI, nil)
	if err := write(t, m, other, rec, 1, "v1"); err != nil {
		t.Fatal(err)
	}
	other.Commit()

	// reader now tries to update the record that committed after its
	// snapshot: first-committer-wins must fire.
	if err := write(t, m, reader, rec, 1, "mine"); err != ErrWriteConflict {
		t.Fatalf("Trans-SI stale write = %v, want ErrWriteConflict", err)
	}
	reader.Abort()

	// Under Stmt-SI the same write succeeds (statement sees latest).
	late := m.Begin(StmtSI, nil)
	if err := write(t, m, late, rec, 1, "stmt"); err != nil {
		t.Fatalf("Stmt-SI write = %v", err)
	}
	late.Abort()
}

// TestAbortUndoesVersions: a transaction's versions count in the version
// space when it finishes — five after a commit — and an aborted one's leave
// it as they came, counted as created and rolled back.
func TestAbortUndoesVersions(t *testing.T) {
	m := newTestManager(t, Config{})
	rec := &nopRecord{}
	kept := m.Begin(StmtSI, nil)
	for rid := uint64(1); rid <= 5; rid++ {
		if err := write(t, m, kept, rec, rid, "clean"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kept.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Space().Live() != 5 {
		t.Fatalf("live after commit = %d, want 5", m.Space().Live())
	}
	txn := m.Begin(StmtSI, nil)
	for rid := uint64(6); rid <= 10; rid++ {
		if err := write(t, m, txn, rec, rid, "dirty"); err != nil {
			t.Fatal(err)
		}
	}
	txn.Abort()
	sp := m.Space()
	if sp.Live() != 5 || sp.Created() != 10 || sp.RolledBackTotal() != 5 {
		t.Fatalf("after abort: live=%d created=%d rolled=%d, want 5, 10, 5", sp.Live(), sp.Created(), sp.RolledBackTotal())
	}
	if m.Stats().TxnsAborted != 1 {
		t.Fatal("abort not counted")
	}
	txn.Abort() // no-op
	if m.Stats().TxnsAborted != 1 {
		t.Fatal("double abort counted twice")
	}
}

func TestSnapshotScopeAndView(t *testing.T) {
	m := newTestManager(t, Config{})
	s := m.AcquireSnapshot(KindCursor, []ts.TableID{3})
	defer s.Release()
	if !s.InScope(3) || s.InScope(4) {
		t.Fatal("scope checks broken")
	}
	unscoped := m.AcquireSnapshot(KindStatement, nil)
	defer unscoped.Release()
	if !unscoped.InScope(99) {
		t.Fatal("unscoped snapshot may access anything")
	}
	if n := m.View().Len(); n != 2 {
		t.Fatalf("view holds %d snapshots", n)
	}
	// Long-lived detection: only the unreleased, not-yet-narrowed one with
	// known tables qualifies, and the view that narrows it already answers
	// with it scoped.
	time.Sleep(5 * time.Millisecond)
	v := m.View()
	if h := v.TableHorizon(4); h != s.TS() {
		t.Fatalf("TableHorizon(4) before scoping = %d, want %d", h, s.TS())
	}
	if n := v.ScopeLongLived(time.Millisecond); n != 1 || !s.Scoped() || unscoped.Scoped() {
		t.Fatalf("ScopeLongLived = %d, scoped %v/%v", n, s.Scoped(), unscoped.Scoped())
	}
	if h3, h4 := v.TableHorizon(3), v.TableHorizon(4); h3 != s.TS() || h4 != unscoped.TS() {
		t.Fatalf("same view after scoping: TableHorizon(3), (4) = %d, %d, want %d, %d", h3, h4, s.TS(), unscoped.TS())
	}
	if n := m.View().ScopeLongLived(time.Millisecond); n != 0 {
		t.Fatal("already-scoped snapshot must not be narrowed again")
	}
	if v := m.View(); v.Len() != 2 || v.Horizon() != s.TS() {
		t.Fatalf("Len, Horizon = %d, %d", v.Len(), v.Horizon())
	}
}

// TestViewSeesEverySnapshotAcrossSegments holds 1000 snapshots at once —
// four segments of the announcement array — acquired concurrently, and
// checks a view counts them all, sets its horizon by the oldest, and visits
// exactly the snapshots.
func TestViewSeesEverySnapshotAcrossSegments(t *testing.T) {
	const n = 1000
	m := newTestManager(t, Config{})
	snaps := make([]*Snapshot, n)
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i] = m.AcquireSnapshot(KindStatement, nil)
		}(i)
	}
	wg.Wait()
	v := m.View()
	if got := v.Len(); got != n {
		t.Fatalf("Len = %d, want %d snapshots", got, n)
	}
	oldest := snaps[0].TS()
	for _, s := range snaps {
		oldest = min(oldest, s.TS())
	}
	if h := v.Horizon(); h != oldest {
		t.Fatalf("Horizon = %d, want the oldest snapshot's %d", h, oldest)
	}
	seen := make(map[*Snapshot]bool, n)
	v.Snapshots(func(s *Snapshot) { seen[s] = true })
	for i, s := range snaps {
		if !seen[s] {
			t.Fatalf("snapshot %d missing from Snapshots()", i)
		}
	}
	if len(seen) != n {
		t.Fatalf("Snapshots() visited %d distinct snapshots, want %d", len(seen), n)
	}
	for _, s := range snaps {
		s.Release()
	}
	v = m.View()
	v.Snapshots(func(s *Snapshot) { t.Fatalf("snapshot at %d still active after release", s.TS()) })
	if v.Len() != 0 || v.Horizon() != v.Bound()+1 {
		t.Fatalf("Len, Horizon = %d, %d after every release, want 0, %d", v.Len(), v.Horizon(), v.Bound()+1)
	}
}

func TestSnapshotDoubleReleaseSafe(t *testing.T) {
	m := newTestManager(t, Config{})
	s := m.AcquireSnapshot(KindStatement, nil)
	s.Release()
	s.Release() // must not panic
	if !s.Released() {
		t.Fatal("snapshot must report released")
	}
}

func TestManagerClose(t *testing.T) {
	m := NewManager(mvcc.NewSpace(64), sts.NewRegistry(), Config{})
	m.Close()
	m.Close() // idempotent
	txn := m.Begin(StmtSI, nil)
	if err := write(t, m, txn, &nopRecord{}, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != ErrClosed {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
	}
}

func TestHorizonsWithTableScoping(t *testing.T) {
	m := newTestManager(t, Config{})
	rec := &nopRecord{}
	for i := 0; i < 3; i++ {
		w := m.Begin(StmtSI, nil)
		if err := write(t, m, w, rec, uint64(i), "x"); err != nil {
			t.Fatal(err)
		}
		w.Commit()
	}
	cur := m.CurrentTS()
	if h := m.View().Horizon(); h != cur+1 {
		t.Fatalf("idle horizon = %d, want %d", h, cur+1)
	}
	long := m.AcquireSnapshot(KindCursor, []ts.TableID{7})
	if h := m.View().Horizon(); h != long.TS() {
		t.Fatalf("horizon = %d, want %d", h, long.TS())
	}
	m.View().ScopeLongLived(0)
	// Global horizon (union) still pinned; table horizons split.
	if h := m.View().Horizon(); h != long.TS() {
		t.Fatalf("union horizon = %d, want %d", h, long.TS())
	}
	v := m.View()
	if h := v.TableHorizon(7); h != long.TS() {
		t.Fatalf("TableHorizon(7) = %d", h)
	}
	if h := v.TableHorizon(8); h != cur+1 {
		t.Fatalf("TableHorizon(8) = %d, want %d", h, cur+1)
	}
	if h := v.UnscopedHorizon(); h != cur+1 {
		t.Fatalf("UnscopedHorizon = %d, want %d", h, cur+1)
	}
	if got := v.Set(); len(got) != 1 || got[0] != long.TS() || v.Bound() != cur {
		t.Fatalf("Set, Bound = %v, %d", got, v.Bound())
	}
	long.Release()
}

// TestCloseCommitRace provokes the shutdown race: many goroutines submit
// commits while Close runs concurrently. Every Commit call must return —
// either its CID or ErrClosed — and never hang: Close is the commit queue's
// last request, so whatever was accepted ahead of it is published and
// whatever comes after is refused. No commit may be both: an answered one
// keeps its version, a refused one is rolled back, and the counters account
// for every call.
func TestCloseCommitRace(t *testing.T) {
	for round := 0; round < 30; round++ {
		m := NewManager(mvcc.NewSpace(64), sts.NewRegistry(), Config{})
		const committers = 8
		var wg sync.WaitGroup
		var calls, answered, refused atomic.Int64
		start := make(chan struct{})
		for g := 0; g < committers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					txn := m.Begin(StmtSI, nil)
					if err := write(t, m, txn, &nopRecord{}, uint64(g*1000+i), "x"); err != nil {
						t.Error(err)
						return
					}
					calls.Add(1)
					cid, err := txn.Commit()
					switch {
					case err == nil && cid != ts.Invalid:
						answered.Add(1)
					case err == ErrClosed:
						refused.Add(1)
						return
					default:
						t.Errorf("commit = %d, %v; want a CID or ErrClosed", cid, err)
						return
					}
				}
			}(g)
		}
		close(start)
		// Close at the very start of the commit storm, or (odd rounds)
		// somewhere in the middle of it.
		for round%2 == 1 && answered.Load() == 0 {
			runtime.Gosched()
		}
		m.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: committers hung after Close", round)
		}
		st := m.Stats()
		if st.TxnsCommitted != answered.Load() || st.TxnsAborted != refused.Load() ||
			st.TxnsCommitted+st.TxnsAborted != calls.Load() {
			t.Fatalf("round %d: %d committed + %d aborted counted for %d answered + %d refused of %d calls",
				round, st.TxnsCommitted, st.TxnsAborted, answered.Load(), refused.Load(), calls.Load())
		}
		// One version per transaction and no GC: what is still linked is
		// exactly what was answered, what was rolled back exactly the rest.
		if live, rolled := m.Space().Live(), m.Space().RolledBackTotal(); live != answered.Load() || rolled != refused.Load() {
			t.Fatalf("round %d: %d versions live, %d rolled back; want %d and %d",
				round, live, rolled, answered.Load(), refused.Load())
		}
		if m.CurrentTS() != ts.CID(st.GroupsCommitted) {
			t.Fatalf("round %d: CurrentTS %d after %d groups", round, m.CurrentTS(), st.GroupsCommitted)
		}
	}
}
