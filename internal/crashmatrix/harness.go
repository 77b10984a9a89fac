// Package crashmatrix drives one simulated crash per declared failpoint and
// validates what recovery produces. Each scenario runs a deterministic mixed
// workload (inserts, updates, deletes, DDL, checkpoints) against a persistent
// engine while mirroring every acknowledged commit into a sequential
// oracle.Model, arms exactly one failpoint, lets it fire, snapshots the
// persistence directory the way a power cut would observe it, reopens, and
// checks the recovered state against the model under the commit-ambiguity
// contract: everything acknowledged survives, at most the single in-flight
// commit may additionally appear, and nothing else.
package crashmatrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/oracle"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// Ops is the workload length of one scenario. Checkpoints land every 23rd op
// and DDL every 37th, so every site in the inventory is hit several times.
const Ops = 200

// DDLAppendAfter is the After() value that lands a wal append-path failure
// exactly on the workload's first mid-run CreateTable: ops 0..35 contain one
// checkpoint (op 22) and 35 log appends, so the DDL record of op 36 is the
// 36th armed hit — After(35). Scenarios using it exercise crash-during-DDL.
const DDLAppendAfter = 35

// Scenario is one cell of the crash matrix.
type Scenario struct {
	// Site is the failpoint to arm (a name from fault.Inventory()).
	Site string
	// After skips that many hits before firing, moving the crash deeper into
	// the workload.
	After int
	// Err optionally substitutes the injected failure — e.g. a simulated
	// "no space left on device" built with fault.Errorf, so the harness can
	// still recognize it as injected. Nil injects the generic fault error.
	Err error
}

// Class is the expected engine reaction to a site failing.
type Class int

const (
	// ClassFatal sites are on the commit durability path: a failure there
	// must fail the in-flight commit and fail-stop the engine.
	ClassFatal Class = iota
	// ClassDegraded sites are on the checkpoint path: a failure surfaces as
	// a checkpoint error, but commits must keep flowing (the log alone
	// carries durability).
	ClassDegraded
	// ClassRecovery sites fire during Open: the failed Open must be
	// side-effect free — a retry recovers the same state.
	ClassRecovery
)

// Classify maps a site to its expected reaction.
func Classify(site string) Class {
	switch site {
	case wal.FPAppend, wal.FPAppendTorn, wal.FPSync, wal.FPRotate, txn.FPPublish:
		return ClassFatal
	case core.FPRecover:
		return ClassRecovery
	default: // wal/checkpoint-write, -sync, -rename, wal/segment-remove
		return ClassDegraded
	}
}

// strictlyAbsent reports whether a site fails before any byte of the commit
// record is durably framed, so the rejected commit must NOT survive recovery.
// The remaining fatal sites (fsync, publish) fail after the full record
// reached the OS, where either outcome is legal for an unacknowledged commit.
func strictlyAbsent(site string) bool {
	return site == wal.FPAppend || site == wal.FPAppendTorn
}

// Report summarizes one scenario run for the test to assert on.
type Report struct {
	Fired      int64  // times the armed site fired
	Acked      ts.CID // last acknowledged commit identifier
	Recovered  ts.CID // commit identifier after reopening the crash image
	CrashedAt  int    // op index of the injected failure, -1 if none surfaced
	PendingDDL bool   // the in-flight op at the crash was a CreateTable
}

// pendingOp describes the single operation in flight when the crash hit.
type pendingOp struct {
	isDDL bool
	name  string // table name, for DDL
	key   ts.RecordKey
	img   string // "" = delete
}

// runner executes the workload and mirrors acknowledged effects.
type runner struct {
	db      *core.DB
	model   *oracle.Model
	names   map[ts.TableID]string // acked tables by their original ID
	ddl     []string              // acked mid-run DDL names, creation order
	live    []ts.RecordKey        // keys currently live in the model
	t0      ts.TableID
	lastTID ts.TableID
	acked   ts.CID
}

func dbConfig(dir string) core.Config {
	return core.Config{
		Persistence: &core.Persistence{Dir: dir, Sync: true},
	}
}

// newRunner opens the engine, creates the base table and seeds it — all
// before the scenario's failpoint is armed.
func newRunner(dir string) (*runner, error) {
	db, err := core.Open(dbConfig(dir))
	if err != nil {
		return nil, err
	}
	r := &runner{db: db, model: oracle.NewModel(), names: map[ts.TableID]string{}}
	r.t0, err = db.CreateTable("T0")
	if err != nil {
		db.Close()
		return nil, err
	}
	r.names[r.t0] = "T0"
	r.lastTID = r.t0
	for i := 0; i < 8; i++ {
		if _, err := r.exec(r.t0, fmt.Sprintf("seed%d", i)); err != nil {
			db.Close()
			return nil, err
		}
	}
	return r, nil
}

// ok records one acknowledged commit: the group's CID is the manager's
// current timestamp (the workload is the only writer).
func (r *runner) ok(key ts.RecordKey, img string) {
	r.acked = r.db.Manager().CurrentTS()
	r.model.Apply(key, r.acked, img)
}

// exec inserts one row and mirrors it on success.
func (r *runner) exec(tid ts.TableID, img string) (ts.RID, error) {
	var rid ts.RID
	err := r.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		var e error
		rid, e = tx.Insert(tid, []byte(img))
		return e
	})
	if err == nil {
		key := ts.RecordKey{Table: tid, RID: rid}
		r.ok(key, img)
		r.live = append(r.live, key)
	}
	return rid, err
}

// step runs workload op i and returns the op's description (for pending-op
// accounting if it failed) plus its error.
func (r *runner) step(i int) (*pendingOp, error) {
	switch {
	case i%23 == 22:
		return nil, r.db.Checkpoint()
	case i%37 == 36:
		name := fmt.Sprintf("T%d", len(r.ddl)+1)
		p := &pendingOp{isDDL: true, name: name}
		tid, err := r.db.CreateTable(name)
		if err != nil {
			return p, err
		}
		r.names[tid] = name
		r.ddl = append(r.ddl, name)
		r.lastTID = tid
		return nil, nil
	}
	switch i % 5 {
	case 0, 1: // insert, occasionally into the newest DDL table
		target := r.t0
		if i%10 == 6 {
			target = r.lastTID
		}
		img := fmt.Sprintf("i%d", i)
		p := &pendingOp{key: ts.RecordKey{Table: target}, img: img}
		rid, err := r.exec(target, img)
		p.key.RID = rid
		return p, err
	case 2, 3: // update a live key
		key := r.live[i%len(r.live)]
		img := fmt.Sprintf("u%d", i)
		p := &pendingOp{key: key, img: img}
		err := r.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
			return tx.Update(key.Table, key.RID, []byte(img))
		})
		if err == nil {
			r.ok(key, img)
		}
		return p, err
	default: // delete a live key
		idx := i % len(r.live)
		key := r.live[idx]
		p := &pendingOp{key: key, img: ""}
		err := r.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
			return tx.Delete(key.Table, key.RID)
		})
		if err == nil {
			r.ok(key, "")
			r.live[idx] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
		}
		return p, err
	}
}

// Run executes one scenario end to end and returns its report; a non-nil
// error is a contract violation (lost commit, phantom, missed fail-stop, …).
func Run(dir string, s Scenario) (*Report, error) {
	defer fault.Reset()
	r, err := newRunner(dir)
	if err != nil {
		return nil, err
	}
	rep := &Report{CrashedAt: -1}
	class := Classify(s.Site)

	if class == ClassRecovery {
		// The crash happens on restart: run the workload clean, close, fail
		// the reopen, and require a retried Open to recover everything.
		for i := 0; i < Ops; i++ {
			if _, err := r.step(i); err != nil {
				r.db.Close()
				return nil, fmt.Errorf("unarmed workload op %d: %w", i, err)
			}
		}
		rep.Acked = r.acked
		r.db.Close()
		fault.Enable(s.Site, armOpts(s)...)
		if _, err := core.Open(dbConfig(dir)); !errors.Is(err, fault.ErrInjected) {
			return nil, fmt.Errorf("open under %s: %v, want injected failure", s.Site, err)
		}
		rep.Fired = fault.FiredCount(s.Site)
		fault.Disable(s.Site)
		return rep, r.validate(dir, s, nil, rep)
	}

	fault.Enable(s.Site, armOpts(s)...)
	var pend *pendingOp
	extra := 0
	for i := 0; i < Ops; i++ {
		p, err := r.step(i)
		if err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				r.db.Close()
				return nil, fmt.Errorf("op %d: unexpected error %w", i, err)
			}
			rep.CrashedAt = i
			if class == ClassFatal {
				pend = p
				break
			}
			continue // degraded: the checkpoint error surfaces, work goes on
		}
		// After a degraded-class failure, prove the engine still commits.
		if class == ClassDegraded && rep.CrashedAt >= 0 {
			if extra++; extra >= 25 {
				break
			}
		}
	}
	rep.Fired = fault.FiredCount(s.Site)
	fault.Disable(s.Site)
	if rep.Fired == 0 {
		r.db.Close()
		return nil, fmt.Errorf("site %s never fired (After=%d too deep?)", s.Site, s.After)
	}
	if rep.CrashedAt < 0 {
		r.db.Close()
		return nil, fmt.Errorf("site %s fired but no operation surfaced an error", s.Site)
	}

	if class == ClassFatal {
		if failed, _ := r.db.FailStop(); !failed {
			r.db.Close()
			return nil, fmt.Errorf("site %s: durability failure did not fail-stop the engine", s.Site)
		}
		werr := r.db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
			_, err := tx.Insert(r.t0, []byte("must-not-land"))
			return err
		})
		if !errors.Is(werr, core.ErrFailStop) {
			r.db.Close()
			return nil, fmt.Errorf("site %s: write after fail-stop: %v, want ErrFailStop", s.Site, werr)
		}
	} else if failed, cause := r.db.FailStop(); failed {
		r.db.Close()
		return nil, fmt.Errorf("site %s: checkpoint failure fail-stopped the engine: %v", s.Site, cause)
	}

	rep.Acked = r.acked
	rep.PendingDDL = pend != nil && pend.isDDL

	// Pull the plug: snapshot the directory while the engine is still open,
	// then validate what a restart makes of the image.
	img := dir + "-crash"
	if err := copyDir(dir, img); err != nil {
		r.db.Close()
		return nil, err
	}
	r.db.Close()
	return rep, r.validate(img, s, pend, rep)
}

func armOpts(s Scenario) []fault.Option {
	opts := []fault.Option{fault.After(s.After), fault.Once()}
	if s.Err != nil {
		opts = append(opts, fault.ReturnErr(s.Err))
	}
	return opts
}

// validate reopens dir and checks the recovered state against the model, then
// commits once more and recovers again: the image must stay openable after
// the recovered engine appended behind whatever the crash left at the tail.
func (r *runner) validate(dir string, s Scenario, pend *pendingOp, rep *Report) error {
	rec, err := core.Open(dbConfig(dir))
	if err != nil {
		return fmt.Errorf("crash image failed to recover: %w", err)
	}
	defer rec.Close()
	if failed, cause := rec.FailStop(); failed {
		return fmt.Errorf("recovered engine opened fail-stopped: %v", cause)
	}

	R := rec.Manager().CurrentTS()
	rep.Recovered = R
	switch {
	case R < rep.Acked:
		return fmt.Errorf("lost acknowledged commits: recovered CID %d < acked %d", R, rep.Acked)
	case R > rep.Acked+1:
		return fmt.Errorf("phantom commits: recovered CID %d > acked %d + 1", R, rep.Acked)
	case R == rep.Acked+1:
		if pend == nil || pend.isDDL {
			return fmt.Errorf("recovered CID %d beyond acked %d with no commit in flight", R, rep.Acked)
		}
		if strictlyAbsent(s.Site) {
			return fmt.Errorf("%s: commit rejected before reaching the log survived recovery", s.Site)
		}
	}

	expect := r.model
	if R == rep.Acked+1 {
		expect = r.model.Clone()
		expect.Apply(pend.key, R, pend.img)
	}

	// Every acknowledged table must exist; map original IDs to recovered ones.
	recTID := map[ts.TableID]ts.TableID{}
	for origID, name := range r.names {
		rt := rec.TableID(name)
		if rt == 0 {
			return fmt.Errorf("acked table %q missing after recovery", name)
		}
		recTID[origID] = rt
	}

	// Per-record images at the recovered timestamp.
	for _, key := range expect.Keys() {
		want, wok := expect.Read(key, R)
		got, gok := rec.ReadAt(recTID[key.Table], key.RID, R)
		if gok != wok || (wok && string(got) != want) {
			return fmt.Errorf("record %s/%d: recovered %q,%v want %q,%v",
				r.names[key.Table], key.RID, got, gok, want, wok)
		}
	}
	// No phantoms: live-row counts must match the model exactly.
	perTable := map[ts.TableID]int{}
	for _, key := range expect.Keys() {
		if _, ok := expect.Read(key, R); ok {
			perTable[key.Table]++
		}
	}
	for origID, rt := range recTID {
		if n := rec.ScanCountAt(rt, R); n != perTable[origID] {
			return fmt.Errorf("table %q: %d live rows recovered, want %d",
				r.names[origID], n, perTable[origID])
		}
	}

	t0 := recTID[r.t0]
	var rid ts.RID
	if err := rec.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		var e error
		rid, e = tx.Insert(t0, []byte("after-recovery"))
		return e
	}); err != nil {
		return fmt.Errorf("commit on the recovered engine: %w", err)
	}
	rec.Close()
	again, err := core.Open(dbConfig(dir))
	if err != nil {
		return fmt.Errorf("second recovery of the crash image: %w", err)
	}
	defer again.Close()
	if got := again.Manager().CurrentTS(); got != R+1 {
		return fmt.Errorf("second recovery reached CID %d, want %d", got, R+1)
	}
	if img, ok := again.ReadAt(t0, rid, R+1); !ok || string(img) != "after-recovery" {
		return fmt.Errorf("row committed after the first recovery: %q,%v", img, ok)
	}
	return nil
}

// copyDir snapshots a persistence directory the way a crash would observe it:
// log segments before the checkpoint file (a checkpoint observed later than
// the segments can only be newer, keeping the image a consistent commit
// prefix), files pruned mid-copy skipped.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	copyOne := func(name string) error {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			if os.IsNotExist(err) {
				return nil // pruned between listing and read; a crash misses it too
			}
			return err
		}
		return os.WriteFile(filepath.Join(dst, name), b, 0o644)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "checkpoint.ckpt" {
			continue
		}
		if err := copyOne(e.Name()); err != nil {
			return err
		}
	}
	return copyOne("checkpoint.ckpt")
}
