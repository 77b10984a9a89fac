package gc

import (
	"fmt"
	"testing"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// never is a period no test outlives: a loop configured with it only moves
// when work wakes it.
const never = time.Hour

// churn commits n single-version updates of one record.
func (e *env) churn(tbl *table.Table, rid ts.RID, n int) {
	e.t.Helper()
	for i := 0; i < n; i++ {
		e.update(tbl, rid, fmt.Sprintf("c%d", i))
	}
}

// eventually polls cond until it holds or a generous deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// quiet asserts that c does not run for a while.
func quiet(t *testing.T, c *Totals, why string) {
	t.Helper()
	runs := c.Runs()
	time.Sleep(30 * time.Millisecond)
	if got := c.Runs(); got != runs {
		t.Fatalf("%d passes ran %s", got-runs, why)
	}
}

// TestLoopWakesOnBatch: with the idle fallback out of reach, the loop sleeps
// through less than a batch of published versions and runs a full pass —
// GT, TG and SI — as the batch fills. Only the loop runs TG and SI; GT also
// runs on the committers meanwhile.
func TestLoopWakesOnBatch(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never, TG: never, SI: never}, 0)
	h.Start()
	defer h.Stop()
	e.churn(tbl, rid, batchVersions/2)
	quiet(t, &h.TG.Totals, "below a batch with no period due")
	e.churn(tbl, rid, batchVersions/2)
	eventually(t, "the batch wake", func() bool { return h.TG.Totals.Runs() > 0 && h.SI.Totals.Runs() > 0 })
}

// TestCommitterRunsGT: with the loop asleep — every period out of reach and
// less than a batch published — the groups below the horizon are reclaimed
// by a commit, before that Commit returns. Not by every commit: one view
// serves the versions of many.
func TestCommitterRunsGT(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never, TG: never, SI: never}, 0)
	h.Start()
	defer h.Stop()
	commits := 0
	for e.space.Live() > 0 {
		if commits == batchVersions/2 {
			t.Fatalf("%d commits and %d versions live: no committer collected", commits, e.space.Live())
		}
		e.churn(tbl, rid, 1)
		commits++
	}
	if gt := h.GT.Totals.Runs(); commits < 2 || gt != 1 {
		t.Fatalf("GT ran %d times for %d commits, want once after several", gt, commits)
	}
	if n := h.TG.Totals.Runs(); n != 0 {
		t.Fatalf("the loop ran %d passes below a batch", n)
	}
}

// TestCommitsBehindPinTakeNoView: once a group collection has stopped at a
// held snapshot, committers take no view of the announcement array until it
// is released — the only views taken are the loop's, one per pass, and a
// pass is the only thing that runs TG.
func TestCommitsBehindPinTakeNoView(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never, TG: never, SI: never}, 0)
	h.Start()
	defer h.Stop()
	pin := e.m.AcquireSnapshot(txn.KindCursor, nil)
	defer pin.Release()
	for i := 0; h.GT.Totals.Runs() == 0; i++ {
		if i == batchVersions/2 {
			t.Fatal("no committer collected")
		}
		e.churn(tbl, rid, 1)
	}
	views := func() uint64 {
		h.mu.Lock() // no pass in flight: its view and its TG run both count, or neither
		defer h.mu.Unlock()
		return e.m.Scans() - uint64(h.TG.Totals.Runs())
	}
	before := views()
	e.churn(tbl, rid, 1000)
	if n := views() - before; n != 0 {
		t.Fatalf("1000 commits behind a held snapshot took %d views", n)
	}
}

// gateRecord is a record whose image install — the first thing GT does to a
// chain it reclaims — waits, when entered is set, until open is closed.
type gateRecord struct{ entered, open chan struct{} }

func (r *gateRecord) InstallImage([]byte) {
	if r.entered != nil {
		close(r.entered)
		<-r.open
	}
}
func (r *gateRecord) DropRecord()       {}
func (r *gateRecord) SetVersioned(bool) {}

// TestStopWaitsForCommitterGT: Stop returns only once a committer's GT in
// flight has finished, and no committer collects after it.
func TestStopWaitsForCommitterGT(t *testing.T) {
	e := newEnv(t)
	h := NewHybrid(e.m, Periods{GT: never, TG: never, SI: never}, 0)
	h.Start()
	gate := &gateRecord{entered: make(chan struct{}), open: make(chan struct{})}
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		// The oldest group's version lands on the gate, so the first GT a
		// commit below runs waits there, inside that commit.
		for i := 0; i < batchVersions/2; i++ {
			var rec mvcc.RecordRef = &gateRecord{}
			if i == 0 {
				rec = gate
			}
			tx := e.m.Begin(txn.StmtSI, nil)
			v := mvcc.NewVersion(mvcc.OpUpdate, ts.RecordKey{Table: 1, RID: ts.RID(i)}, []byte("x"), tx.Context())
			tx.Context().Add(v)
			if _, err := e.space.Prepend(rec, v, tx.ConflictCheck()); err != nil {
				t.Error(err)
				return
			}
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-gate.entered:
	case <-committed:
		t.Fatal("no committer collected")
	}
	stopped := make(chan struct{})
	go func() { h.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a committer's GT was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.open)
	<-stopped
	if n := h.GT.Totals.Runs(); n != 1 {
		t.Fatalf("GT ran %d times by the time Stop returned, want the one in flight", n)
	}
	<-committed
	if n := h.GT.Totals.Runs(); n != 1 {
		t.Fatalf("GT ran %d times: a committer collected after Stop", n)
	}
}

// TestLoopWakesOnReleaseOfMinimum: a snapshot holds a batch of versions back;
// the pass that finds that out leaves the bell armed, and the snapshot's
// release — nothing else happens afterwards — brings the loop back at once.
func TestLoopWakesOnReleaseOfMinimum(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never}, 0)
	h.Start()
	defer h.Stop()
	pin := e.m.AcquireSnapshot(txn.KindTransaction, nil)
	e.churn(tbl, rid, batchVersions+8)
	// Two GT runs: the committer's that found the pin in its way, which
	// keeps committers from collecting again, and the pass the batch causes.
	eventually(t, "the pass the batch causes", func() bool { return h.GT.Totals.Runs() >= 2 })
	quiet(t, &h.GT.Totals, "with the horizon pinned and nothing new")
	if live := e.space.Live(); live < batchVersions {
		t.Fatalf("live = %d: the pin must hold the batch back", live)
	}
	pin.Release()
	eventually(t, "the release wake", func() bool { return e.space.Live() == 0 })
}

// TestLoopIdleFallback: with less than a batch to collect the periods are
// what runs the collectors — each at its own, a zero one never.
func TestLoopIdleFallback(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: 2 * time.Millisecond, SI: 10 * time.Millisecond}, 0)
	h.Start()
	defer h.Stop()
	e.churn(tbl, rid, 5)
	eventually(t, "GT's fallback", func() bool { return e.space.Live() == 0 })
	eventually(t, "SI's fallback", func() bool { return h.SI.Totals.Runs() >= 2 })
	if gt, si := h.GT.Totals.Runs(), h.SI.Totals.Runs(); gt <= si {
		t.Fatalf("GT ran %d times and SI %d: GT has the shorter period and opens every pass", gt, si)
	}
	if n := h.TG.Totals.Runs(); n != 0 {
		t.Fatalf("TG has a zero period and ran %d times", n)
	}
}

// TestLoopCoalescesWakes: batches that fill while a pass is in flight cost
// one more pass, not one each.
func TestLoopCoalescesWakes(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never}, 0)
	h.Start()
	defer h.Stop()
	h.mu.Lock() // a pass in flight
	e.churn(tbl, rid, batchVersions)
	// The loop is now parked on the latch with its pass begun; three more
	// batches fill behind it.
	eventually(t, "the loop to take the first ring", func() bool { return len(e.m.ListenGC(batchVersions)) == 0 })
	for i := 0; i < 3; i++ {
		e.m.BeginGCPass()
		e.churn(tbl, rid, batchVersions)
	}
	h.mu.Unlock()
	eventually(t, "the passes", func() bool { return e.space.Live() <= 1 })
	quiet(t, &h.GT.Totals, "after the coalesced wake was served")
	if n := h.GT.Totals.Runs(); n > 2 {
		t.Fatalf("%d passes for one wake taken and three coalesced behind it, want at most 2", n)
	}
}

// TestStopJoinsThePassInFlight: Stop returns only when the loop has, and
// after it nothing wakes anything.
func TestStopJoinsThePassInFlight(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never}, 0)
	h.Start()
	h.mu.Lock()
	e.churn(tbl, rid, batchVersions)
	eventually(t, "the loop to take the ring", func() bool { return len(e.m.ListenGC(batchVersions)) == 0 })
	stopped := make(chan struct{})
	go func() { h.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the loop's pass was still waiting for the latch")
	case <-time.After(20 * time.Millisecond):
	}
	h.mu.Unlock()
	<-stopped
	runs := h.GT.Totals.Runs()
	e.churn(tbl, rid, 2*batchVersions)
	quiet(t, &h.GT.Totals, "after Stop")
	if h.GT.Totals.Runs() != runs {
		t.Fatal("a pass ran after Stop")
	}
}

// TestNothingRunsBeforeStart: a Hybrid that was never started collects only
// when called — which is how the benchmark's traced mode paces RunGT, RunTG
// and RunSI itself — and what happened before Start does not wake the loop
// once it is started.
func TestNothingRunsBeforeStart(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	rid := e.insert(tbl, "v0")
	h := NewHybrid(e.m, Periods{GT: never, TG: never, SI: never}, 0)
	pin := e.m.AcquireSnapshot(txn.KindTransaction, nil)
	e.churn(tbl, rid, 2*batchVersions)
	h.RunGT() // a paced call: arms nothing, since nobody listens
	pin.Release()
	quiet(t, &h.GT.Totals, "before Start")
	if live := e.space.Live(); live < 2*batchVersions {
		t.Fatalf("live = %d: something collected before Start", live)
	}
	h.Start()
	defer h.Stop()
	quiet(t, &h.GT.Totals, "on Start, from wakes that predate it")
	if st := h.RunSI(); st.Collector != "SI" {
		t.Fatalf("RunSI = %+v", st)
	}
	if live := e.space.Live(); live != 0 {
		t.Fatalf("live = %d after a paced pass with no snapshot", live)
	}
}
