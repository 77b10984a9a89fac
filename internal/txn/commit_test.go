package txn

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// testLogger is a CommitLogger whose LogCommit can sleep, block on a gate,
// fail, and records every group it was shown. It also checks the contract
// leadership gives a logger: calls never overlap and CIDs only ascend.
type testLogger struct {
	t     *testing.T
	sleep time.Duration
	err   error
	// entered and gate, when set, make LogCommit announce itself and then
	// wait to be released.
	entered chan struct{}
	gate    chan struct{}

	inside atomic.Int32
	mu     sync.Mutex
	groups []loggedGroup
}

type loggedGroup struct {
	cid  ts.CID
	size int
}

func (l *testLogger) LogCommit(cid ts.CID, members []*mvcc.TransContext) error {
	if l.inside.Add(1) != 1 {
		l.t.Error("LogCommit called concurrently: two leaders at once")
	}
	defer l.inside.Add(-1)
	if l.entered != nil {
		l.entered <- struct{}{}
		<-l.gate
	}
	if l.sleep > 0 {
		time.Sleep(l.sleep)
	}
	l.mu.Lock()
	if n := len(l.groups); n > 0 && l.err == nil && cid != l.groups[n-1].cid+1 {
		l.t.Errorf("LogCommit saw CID %d after %d: not dense", cid, l.groups[n-1].cid)
	}
	l.groups = append(l.groups, loggedGroup{cid: cid, size: len(members)})
	l.mu.Unlock()
	return l.err
}

func (l *testLogger) logged() []loggedGroup {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]loggedGroup(nil), l.groups...)
}

// queued reports how many requests are waiting in the commit queue.
func queued(m *Manager) int {
	m.cq.mu.Lock()
	defer m.cq.mu.Unlock()
	return m.cq.n
}

// waitQueued spins until exactly n requests are queued.
func waitQueued(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for queued(m) != n {
		if time.Now().After(deadline) {
			t.Fatalf("commit queue holds %d requests, want %d", queued(m), n)
		}
		runtime.Gosched()
	}
}

// checkGroupsDense asserts the group list holds CIDs 1..want in order.
func checkGroupsDense(t *testing.T, m *Manager, want ts.CID) {
	t.Helper()
	var prev ts.CID
	m.Space().Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		if g.CID() != prev+1 {
			t.Errorf("group list holds CID %d after %d: not dense and ascending", g.CID(), prev)
		}
		prev = g.CID()
		return true
	})
	if prev != want || m.CurrentTS() != want {
		t.Errorf("last group CID %d, CurrentTS %d, want both %d", prev, m.CurrentTS(), want)
	}
}

// TestLeaderFollowerFormsGroups: with a logger that takes 2 ms per group and
// no window configured, concurrent committers pile up behind the leader and
// are committed together — fewer groups than transactions — and the members
// of one group share its CID.
func TestLeaderFollowerFormsGroups(t *testing.T) {
	log := &testLogger{t: t, sleep: 2 * time.Millisecond}
	m := newTestManager(t, Config{CommitLogger: log})
	const committers, rounds = 8, 10
	perCID := make(map[ts.CID]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				txn := m.Begin(StmtSI, nil)
				if err := write(t, m, txn, &nopRecord{}, uint64(g*rounds+i), "x"); err != nil {
					t.Error(err)
					return
				}
				cid, err := txn.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				perCID[cid]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.TxnsCommitted != committers*rounds {
		t.Fatalf("TxnsCommitted = %d, want %d", st.TxnsCommitted, committers*rounds)
	}
	if st.GroupsCommitted >= st.TxnsCommitted {
		t.Fatalf("no grouping: %d groups for %d transactions", st.GroupsCommitted, st.TxnsCommitted)
	}
	groups := log.logged()
	if int64(len(groups)) != st.GroupsCommitted || len(perCID) != len(groups) {
		t.Fatalf("%d logged groups, %d counted, %d distinct CIDs returned", len(groups), st.GroupsCommitted, len(perCID))
	}
	for _, g := range groups {
		if perCID[g.cid] != g.size {
			t.Errorf("group CID %d logged %d members, but %d commits returned that CID", g.cid, g.size, perCID[g.cid])
		}
	}
	checkGroupsDense(t, m, ts.CID(len(groups)))
	t.Logf("%d transactions in %d groups", st.TxnsCommitted, st.GroupsCommitted)
}

// TestLeadershipIsBounded: a leader serves exactly one group. One goroutine
// commits and is parked inside the logger as leader while seven others queue
// up behind it; once its own group is through it must return, although the
// queue is not empty and the next group (the seven) is still being logged.
// A leader that kept serving until the queue ran dry would be the one stuck
// in that second LogCommit — under a steady stream of committers, for good.
func TestLeadershipIsBounded(t *testing.T) {
	log := &testLogger{t: t, entered: make(chan struct{}), gate: make(chan struct{})}
	m := newTestManager(t, Config{CommitLogger: log})
	const others = 7
	for it := 0; it < 50; it++ {
		var wg sync.WaitGroup
		commit := func(g int, returned chan<- struct{}) {
			defer wg.Done()
			txn := m.Begin(StmtSI, nil)
			if err := write(t, m, txn, &nopRecord{}, uint64(it*(others+1)+g), "x"); err != nil {
				t.Error(err)
			} else if _, err := txn.Commit(); err != nil {
				t.Error(err)
			}
			if returned != nil {
				close(returned)
			}
		}
		wg.Add(1 + others)
		first := make(chan struct{})
		go commit(0, first)
		<-log.entered // the first committer leads a group of one
		for g := 1; g <= others; g++ {
			go commit(g, nil)
		}
		waitQueued(t, m, others)
		log.gate <- struct{}{}
		<-log.entered // the seven, led by one of them, held in the logger
		select {
		case <-first:
		case <-time.After(5 * time.Second):
			t.Errorf("iteration %d: the first leader did not return while the next group was being committed", it)
		}
		log.gate <- struct{}{}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if st := m.Stats(); st.TxnsCommitted != 50*(others+1) || st.GroupsCommitted != 100 {
		t.Fatalf("stats = %+v, want %d transactions in 100 groups", st, 50*(others+1))
	}
}

// TestBarrierCoversEarlierSubmissions: Barrier returns only after every
// commit submitted before it is visible at CurrentTS(). Each iteration parks
// a leader inside its logger, queues three more commits and then a barrier
// behind them — "submitted before" made observable — and releases the
// leader: when the barrier returns all four must be published.
func TestBarrierCoversEarlierSubmissions(t *testing.T) {
	iterations := 1000
	if testing.Short() {
		iterations = 200
	}
	log := &testLogger{t: t, entered: make(chan struct{}), gate: make(chan struct{})}
	m := newTestManager(t, Config{CommitLogger: log})
	const committers = 4
	for it := 0; it < iterations; it++ {
		var wg sync.WaitGroup
		commit := func(g int) {
			defer wg.Done()
			txn := m.Begin(StmtSI, nil)
			if err := write(t, m, txn, &nopRecord{}, uint64(it*committers+g), "x"); err != nil {
				t.Error(err)
				return
			}
			if _, err := txn.Commit(); err != nil {
				t.Error(err)
			}
		}
		wg.Add(committers)
		go commit(0)
		<-log.entered // the leader took its group of one and is logging it
		for g := 1; g < committers; g++ {
			go commit(g)
		}
		waitQueued(t, m, committers-1)
		barrier := make(chan error, 1)
		go func() { barrier <- m.Barrier() }()
		waitQueued(t, m, committers)
		log.gate <- struct{}{} // first group
		<-log.entered          // second group: three commits and the barrier
		if got := queued(m); got != 0 {
			t.Fatalf("iteration %d: second leader left %d requests queued", it, got)
		}
		select {
		case err := <-barrier:
			t.Fatalf("iteration %d: Barrier returned (%v) while commits ahead of it were still being logged", it, err)
		default:
		}
		log.gate <- struct{}{}
		if err := <-barrier; err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.TxnsCommitted != int64((it+1)*committers) || m.CurrentTS() != ts.CID(2*(it+1)) {
			t.Fatalf("iteration %d: Barrier returned with %d commits published at CurrentTS %d, want %d at %d",
				it, st.TxnsCommitted, m.CurrentTS(), (it+1)*committers, 2*(it+1))
		}
		wg.Wait()
	}
	checkGroupsDense(t, m, ts.CID(2*iterations))
}

// TestFailingLoggerFailsWholeGroup: when the logger fails, the durability
// hook fires once per failed group (before any member returns), every member
// gets the error, every member's versions are rolled back and counted as
// aborted, and no CID is consumed.
func TestFailingLoggerFailsWholeGroup(t *testing.T) {
	boom := errors.New("disk on fire")
	log := &testLogger{t: t, sleep: time.Millisecond, err: boom}
	var hooks atomic.Int64
	m := newTestManager(t, Config{
		CommitLogger:        log,
		OnDurabilityFailure: func(err error) { hooks.Add(1) },
	})
	const committers = 8
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := m.Begin(StmtSI, nil)
			rec := &nopRecord{}
			if err := write(t, m, txn, rec, uint64(g), "x"); err != nil {
				t.Error(err)
				return
			}
			seen := hooks.Load()
			if _, err := txn.Commit(); !errors.Is(err, boom) {
				t.Errorf("commit error = %v, want it to wrap %v", err, boom)
			}
			if hooks.Load() == seen {
				t.Error("Commit returned the failure before OnDurabilityFailure ran")
			}
			if txn.Active() {
				t.Error("failed transaction still active")
			}
		}(g)
	}
	wg.Wait()
	groups := log.logged()
	members := 0
	for _, g := range groups {
		members += g.size
		if g.cid != 1 {
			t.Errorf("failed group was offered CID %d; a failed group must not consume one", g.cid)
		}
	}
	if members != committers {
		t.Fatalf("logger saw %d members, want %d", members, committers)
	}
	if got := hooks.Load(); got != int64(len(groups)) {
		t.Fatalf("OnDurabilityFailure ran %d times for %d failed groups", got, len(groups))
	}
	if st := m.Stats(); st.TxnsAborted != committers || st.TxnsCommitted != 0 || st.GroupsCommitted != 0 || st.LastCID != 0 {
		t.Fatalf("stats after failed groups = %+v", st)
	}
	if live, rolled := m.Space().Live(), m.Space().RolledBackTotal(); live != 0 || rolled != committers {
		t.Fatalf("%d versions still linked, %d rolled back, want 0 and %d", live, rolled, committers)
	}
}

// TestCommitAllocatesGroupOnly pins the commit path proper: beyond what the
// transaction built before calling Commit, a commit allocates the
// GroupCommitContext and the member slice it retains, nothing else — no
// request, channel, queue node or batch buffer. AllocsPerRun counts the whole
// process, so propagation is made synchronous to keep the count exact; it
// walks the member's frozen version list in place and adds nothing.
func TestCommitAllocatesGroupOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := newTestManager(t, Config{})
	const runs = 200
	txns := make([]*Txn, runs+1) // AllocsPerRun calls once more to warm up
	for i := range txns {
		txns[i] = m.Begin(StmtSI, nil)
		if err := write(t, m, txns[i], &nopRecord{}, uint64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := txns[next].Commit(); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 2 {
		t.Fatalf("Commit allocated %.1f objects/op, want 2 (group, member slice)", n)
	}
}
