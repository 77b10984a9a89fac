package gc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/oracle"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// history drives one seeded random history through the engine — Stmt-SI and
// Trans-SI commits, aborts, long snapshots of every kind the table collector
// distinguishes, opened and closed in the middle of the window — next to the
// sequential model of what every commit made visible. After every incremental
// collector pass it asks the two questions the incremental collectors have to
// answer the same way the full-window ones did:
//
//   - complete: the full-window model pass (model_test.go), run right after,
//     reclaims nothing more;
//   - safe: every live snapshot still reads, for every record in its scope,
//     what the model says was visible at its timestamp.
type history struct {
	t      *testing.T
	db     *core.DB
	r      *rand.Rand
	model  *oracle.Model
	tables []ts.TableID            // [0], [1] plain; [2] partitioned
	rids   map[ts.TableID][]ts.RID // every record ever created
	held   []*view
	step   int
}

// view is one long snapshot: where it reads, what it may read, how to end it.
type view struct {
	at     ts.CID
	covers func(ts.RecordKey) bool
	end    func()
}

const (
	historyPartitions = 3
	longLived         = time.Nanosecond // every held snapshot is TG's at its next pass
)

func newHistory(t *testing.T, seed int64) *history {
	db, err := core.Open(core.Config{
		HashBuckets:        1 << 6,
		LongLivedThreshold: longLived,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &history{
		t: t, db: db, r: rand.New(rand.NewSource(seed)),
		model: oracle.NewModel(), rids: make(map[ts.TableID][]ts.RID),
	}
	t.Cleanup(func() {
		for _, v := range h.held {
			v.end()
		}
		db.Close()
	})
	for _, name := range []string{"A", "B", "P"} {
		tid, err := db.CreateTable(name)
		if err != nil {
			t.Fatal(err)
		}
		h.tables = append(h.tables, tid)
	}
	if err := db.SetTablePartitions(h.tables[2], historyPartitions); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *history) anyTable() ts.TableID { return h.tables[h.r.Intn(len(h.tables))] }

// commit runs one write transaction of one to four operations and, if it
// commits, applies them to the model under its CID. Trans-SI writers can lose
// a first-committer-wins race against nobody here (the history is serial),
// but they can run into their own snapshot being older than a record's head.
func (h *history) commit(iso txn.Isolation, abort bool) {
	tx := h.db.Begin(iso)
	type effect struct {
		key ts.RecordKey
		img string
	}
	var effects []effect
	for n := 1 + h.r.Intn(4); n > 0; n-- {
		tid := h.anyTable()
		img := fmt.Sprintf("s%d.%d", h.step, n)
		rids := h.rids[tid]
		var rid ts.RID
		var err error
		switch op := h.r.Intn(10); {
		case op < 3 || len(rids) == 0:
			rid, err = tx.Insert(tid, []byte(img))
			if err == nil {
				h.rids[tid] = append(h.rids[tid], rid)
			}
		case op < 9:
			rid = rids[h.r.Intn(len(rids))]
			err = tx.Update(tid, rid, []byte(img))
		default:
			rid = rids[h.r.Intn(len(rids))]
			err, img = tx.Delete(tid, rid), ""
		}
		switch {
		case err == nil:
			effects = append(effects, effect{ts.RecordKey{Table: tid, RID: rid}, img})
		case errors.Is(err, core.ErrRecordNotFound), errors.Is(err, core.ErrWriteConflict):
			// Deleted earlier, or newer than a Trans-SI writer's snapshot.
		default:
			h.t.Fatalf("step %d: write: %v", h.step, err)
		}
	}
	if abort {
		tx.Abort()
		return
	}
	cid, err := tx.CommitCID()
	if err != nil {
		h.t.Fatalf("step %d: commit: %v", h.step, err)
	}
	for _, e := range effects {
		h.model.Apply(e.key, cid, e.img)
	}
}

// open takes a long snapshot of a random kind.
func (h *history) open() {
	all := func(ts.RecordKey) bool { return true }
	switch h.r.Intn(4) {
	case 0: // cursor: scope known from the plan, one table
		tid := h.anyTable()
		cur, err := h.db.OpenCursor(tid)
		if err != nil {
			h.t.Fatal(err)
		}
		h.held = append(h.held, &view{at: cur.SnapshotTS(), end: cur.Close,
			covers: func(k ts.RecordKey) bool { return k.Table == tid }})
	case 1: // cursor pruned to one partition
		tid, p := h.tables[2], ts.PartitionID(h.r.Intn(historyPartitions))
		cur, err := h.db.OpenPartitionCursor(tid, p)
		if err != nil {
			h.t.Fatal(err)
		}
		h.held = append(h.held, &view{at: cur.SnapshotTS(), end: cur.Close,
			covers: func(k ts.RecordKey) bool {
				q, ok := h.db.PartitionOf(k)
				return k.Table == tid && ok && q == p
			}})
	case 2: // Trans-SI, declared tables
		a, b := h.anyTable(), h.anyTable()
		tx := h.db.Begin(txn.TransSI, a, b)
		h.held = append(h.held, &view{at: tx.SnapshotTS(), end: tx.Abort,
			covers: func(k ts.RecordKey) bool { return k.Table == a || k.Table == b }})
	default: // Trans-SI, scope unknown: pins everything
		tx := h.db.Begin(txn.TransSI)
		h.held = append(h.held, &view{at: tx.SnapshotTS(), end: tx.Abort, covers: all})
	}
}

func (h *history) close() {
	i := h.r.Intn(len(h.held))
	h.held[i].end()
	h.held = append(h.held[:i], h.held[i+1:]...)
}

// collect runs one incremental pass — the full §4.4 pass or one of the three
// entry points — then the model passes that go with it, then the reads.
func (h *history) collect() {
	g, m := h.db.GC(), h.db.Manager()
	tg, si := false, false
	switch h.r.Intn(6) {
	case 0:
		g.RunGT()
	case 1:
		g.RunTG()
		tg = true
	case 2:
		g.RunSI()
		si = true
	default:
		g.Collect()
		tg, si = true, true
	}
	if tg {
		if n := modelTableGC(m, longLived, h.db.PartitionOf); n != 0 {
			h.t.Fatalf("step %d: the table collector left %d versions a full-window pass reclaims", h.step, n)
		}
	}
	if si {
		if n := modelInterval(m); n != 0 {
			h.t.Fatalf("step %d: the interval collector left %d versions a full-window pass reclaims", h.step, n)
		}
	}
	h.verify()
}

func (h *history) verify() {
	for _, v := range h.held {
		for _, key := range h.model.Keys() {
			if !v.covers(key) {
				continue
			}
			want, wantOK := h.model.Read(key, v.at)
			got, gotOK := h.db.ReadAt(key.Table, key.RID, v.at)
			if gotOK != wantOK || gotOK && string(got) != want {
				h.t.Fatalf("step %d: snapshot %d reads %d/%d as %q/%v, the model says %q/%v",
					h.step, v.at, key.Table, key.RID, got, gotOK, want, wantOK)
			}
		}
	}
}

func (h *history) run(steps int) {
	for h.step = 1; h.step <= steps; h.step++ {
		switch n := h.r.Intn(100); {
		case n < 40:
			h.commit(txn.StmtSI, false)
		case n < 52:
			h.commit(txn.TransSI, false)
		case n < 58:
			h.commit(txn.StmtSI, true)
		case n < 68:
			if len(h.held) < 5 {
				h.open()
			}
		case n < 78:
			if len(h.held) > 0 {
				h.close()
			}
		default:
			h.collect()
		}
	}
}

// TestIncrementalMatchesFullWindow is the differential test for the
// incremental table and interval collectors: seeded random histories, the
// retired full-window collectors as the model, oracle.Model for the reads.
// Mutation-checked: with the departure revisit removed from Interval.Collect,
// or with TableGC.Collect starting at next regardless of which horizons
// advanced, it fails within the first seeds.
func TestIncrementalMatchesFullWindow(t *testing.T) {
	seeds, steps := 60, 400
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			h := newHistory(t, seed)
			h.run(steps)
			// When every snapshot has ended and a pass has run, nothing is
			// left: not in the version space, not in the group list, not in
			// the interval collector's files.
			for _, v := range h.held {
				v.end()
			}
			h.held = nil
			h.db.GC().Collect()
			if live, groups, filed := h.db.Space().Live(), h.db.Space().Groups.Len(), h.db.GC().SI.Held(); live != 0 || groups != 0 || filed != 0 {
				t.Fatalf("after the last snapshot ended: %d live versions, %d groups, %d filed versions", live, groups, filed)
			}
		})
	}
}
