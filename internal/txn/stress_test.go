package txn_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridgc/internal/gc"
	"hybridgc/internal/mvcc"
	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// TestSnapshotSetAndBoundInvariantStress hammers lock-free snapshot
// Acquire/Release on all cores against concurrent commits, a scanning
// goroutine, and an interval-GC loop, and asserts the seqlock's safety
// condition: for every completed View, a snapshot held afterwards either
// appears in the view's set or sits at or above its bound.
// That is exactly what interval reclamation relies on to collect versions
// between max(S) and the bound — a timestamp slipping under the bound
// unannounced would let GC reclaim a version the snapshot can still read.
//
// Red-test property: reverting the seqlock (publishing snapshots without
// validating against scanSeq, or taking a view without beginScan/endScan) makes
// this fail within a few hundred milliseconds on a multicore run, because an
// acquirer can read the commit timestamp before a scan captures its bound
// and announce itself only after the scan's set was built.
func TestSnapshotSetAndBoundInvariantStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	m := txn.NewManager(mvcc.NewSpace(1<<16), sts.NewRegistry(), txn.Config{})
	defer m.Close()

	duration := 2 * time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}

	// scan is one published view's set and bound. set is a map for O(1)
	// membership checks on the assert path.
	type scan struct {
		bound ts.CID
		set   map[ts.CID]struct{}
	}
	var latest atomic.Pointer[scan]

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers advance the commit timestamp as fast as they can, so scans and
	// acquirers constantly race on CurrentTS.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			rec := &nopStressRecord{}
			rid := base
			for {
				select {
				case <-stop:
					return
				default:
				}
				rid++
				tx := m.Begin(txn.StmtSI, nil)
				v := mvcc.NewVersion(mvcc.OpInsert,
					ts.RecordKey{Table: 1, RID: ts.RID(rid)}, []byte("x"), tx.Context())
				tx.Context().Add(v)
				if _, err := m.Space().Prepend(rec, v, tx.ConflictCheck()); err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w) << 32)
	}

	// Scanner: captures set+bound and publishes it for the acquirers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var view txn.View
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.ViewInto(&view) // refilled in place, as the collector loop does
			s := &scan{bound: view.Bound(), set: make(map[ts.CID]struct{}, view.Len())}
			for _, c := range view.Set() {
				s.set[c] = struct{}{}
			}
			latest.Store(s)
		}
	}()

	// Interval GC loop: a second concurrent scanner that also reclaims, so
	// the invariant is exercised by the real consumer, not just the checker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ic := gc.NewInterval(m)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ic.Collect()
		}
	}()

	// Acquirers: grab a snapshot, then check it against the latest completed
	// scan. The scan was published before the check, so it either completed
	// before our acquire (then we must be in its set or at/above its bound)
	// or overlapped it (then the seqlock forced our acquire to land cleanly
	// on one side: in the set if before, at/above the bound if after —
	// bounds only grow while sets only see held announcements).
	var checks atomic.Int64
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.AcquireSnapshot(txn.KindStatement, nil)
				if p := latest.Load(); p != nil {
					if _, in := p.set[s.TS()]; !in && s.TS() < p.bound {
						t.Errorf("bound invariant violated: held snapshot ts=%d below bound=%d and not in scanned set (|set|=%d)",
							s.TS(), p.bound, len(p.set))
						s.Release()
						return
					}
					checks.Add(1)
				}
				s.Release()
			}
		}()
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if checks.Load() == 0 {
		t.Fatal("stress ran without performing a single invariant check")
	}
	t.Logf("checked %d snapshots against concurrent scans", checks.Load())
}

type nopStressRecord struct{}

func (r *nopStressRecord) InstallImage([]byte) {}
func (r *nopStressRecord) DropRecord()         {}
func (r *nopStressRecord) SetVersioned(bool)   {}
