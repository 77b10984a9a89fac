package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/fault"
	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

func openPersistent(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Config{
		Persistence: &Persistence{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRecoveryFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	tid := mustCreate(t, db, "T")
	ridA := insert1(t, db, tid, "a1")
	ridB := insert1(t, db, tid, "b1")
	update1(t, db, tid, ridA, "a2")
	if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		return tx.Delete(tid, ridB)
	}); err != nil {
		t.Fatal(err)
	}
	lastCID := db.Manager().CurrentTS()
	db.Close()

	db2 := openPersistent(t, dir)
	defer db2.Close()
	tid2 := db2.TableID("T")
	if tid2 != tid {
		t.Fatalf("recovered table ID %d != %d", tid2, tid)
	}
	if got, err := get1(t, db2, tid2, ridA); err != nil || got != "a2" {
		t.Fatalf("recovered read = %q, %v", got, err)
	}
	if _, err := get1(t, db2, tid2, ridB); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("deleted record resurrected: %v", err)
	}
	if ts := db2.Manager().CurrentTS(); ts != lastCID {
		t.Fatalf("recovered commit timestamp %d, want %d", ts, lastCID)
	}
	// New inserts must not collide with recovered RIDs.
	ridC := insert1(t, db2, tid2, "c1")
	if ridC == ridA || ridC == ridB {
		t.Fatalf("RID allocator collided: %d", ridC)
	}
}

func TestRecoveryAfterAbortLosesNothing(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	tid := mustCreate(t, db, "T")
	keep := insert1(t, db, tid, "keep")
	// An aborted transaction must leave no trace in the log.
	tx := db.Begin(txn.StmtSI)
	if _, err := tx.Insert(tid, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	db.Close()

	db2 := openPersistent(t, dir)
	defer db2.Close()
	if got, _ := get1(t, db2, db2.TableID("T"), keep); got != "keep" {
		t.Fatalf("committed row lost: %q", got)
	}
	n := db2.ScanCountAt(db2.TableID("T"), db2.Manager().CurrentTS())
	if n != 1 {
		t.Fatalf("recovered %d rows, want 1 (abort leaked)", n)
	}
}

func TestCheckpointPrunesLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	tid := mustCreate(t, db, "T")
	var rids []ts.RID
	for i := 0; i < 10; i++ {
		rids = append(rids, insert1(t, db, tid, fmt.Sprintf("v%d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Pre-checkpoint segments are gone; post-checkpoint work lands in new ones.
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		fi, _ := os.Stat(s.Path)
		if fi.Size() > 0 {
			t.Fatalf("segment %s not pruned after checkpoint", s.Path)
		}
	}
	update1(t, db, tid, rids[0], "updated-after-ckpt")
	db.Close()

	db2 := openPersistent(t, dir)
	defer db2.Close()
	tid2 := db2.TableID("T")
	if got, _ := get1(t, db2, tid2, rids[0]); got != "updated-after-ckpt" {
		t.Fatalf("post-checkpoint update lost: %q", got)
	}
	if got, _ := get1(t, db2, tid2, rids[9]); got != "v9" {
		t.Fatalf("checkpointed row lost: %q", got)
	}
}

// TestCheckpointReleasesSnapshotBeforeSync: a checkpoint's snapshot ends
// with its table walk. While the file is being synced no snapshot is held,
// and a version committed then is reclaimed by the next collection.
func TestCheckpointReleasesSnapshotBeforeSync(t *testing.T) {
	db := openPersistent(t, t.TempDir())
	defer db.Close()
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v0")
	db.GC().Collect()

	fault.Enable(wal.FPCheckpointSync, fault.Sleep(time.Second), fault.Once())
	defer fault.Disable(wal.FPCheckpointSync)
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint() }()
	for fault.FiredCount(wal.FPCheckpointSync) == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := db.Stats().ActiveSnapshots; n != 0 {
		t.Fatalf("%d snapshots held while the checkpoint syncs", n)
	}
	update1(t, db, tid, rid, "v1")
	db.GC().Collect()
	if live := db.Stats().VersionsLive; live != 0 {
		t.Fatalf("%d versions live after a collection during the checkpoint's sync", live)
	}
	select {
	case err := <-done:
		t.Fatalf("checkpoint returned (%v) before the checks ran; they did not overlap its sync", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCheckpointFailsOpen: one flipped byte anywhere in the
// checkpoint makes Open fail, naming the file.
func TestCorruptCheckpointFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	tid := mustCreate(t, db, "T")
	for i := 0; i < 50; i++ {
		insert1(t, db, tid, fmt.Sprintf("row-%d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	path := wal.CheckpointPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Config{Persistence: &Persistence{Dir: dir}})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open over a corrupt checkpoint: %v, want an error naming %s", err, path)
	}
}

func TestCheckpointWithoutPersistenceFails(t *testing.T) {
	db := openTest(t, Config{})
	if err := db.Checkpoint(); !errors.Is(err, ErrNoPersistence) {
		t.Fatalf("Checkpoint on memory-only DB = %v", err)
	}
}

// TestRecoveryIgnoresTornTail is three opens: write and tear the tail;
// recover across it and commit; recover again. The second open starts a fresh
// segment, so it must first cut the torn record off the old one — a torn
// record is only legal at the end of the final segment.
func TestRecoveryIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "good")
	update1(t, db, tid, rid, "better")
	db.Close()

	// Tear the log's tail: the last record is cut mid-payload, as if the
	// process died during the write.
	segs, _ := wal.Segments(dir)
	last := segs[len(segs)-1].Path
	b, _ := os.ReadFile(last)
	if err := os.WriteFile(last, b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openPersistent(t, dir)
	// The torn record (the update) is lost; the insert survives.
	if got, _ := get1(t, db2, db2.TableID("T"), rid); got != "good" {
		t.Fatalf("recovered %q, want pre-torn image", got)
	}
	update1(t, db2, tid, rid, "best")
	db2.Close()

	db3 := openPersistent(t, dir)
	defer db3.Close()
	if got, _ := get1(t, db3, db3.TableID("T"), rid); got != "best" {
		t.Fatalf("third open recovered %q, want the update committed after the torn tail", got)
	}
}

func TestRecoveryVersionSpaceStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	tid := mustCreate(t, db, "T")
	rid := insert1(t, db, tid, "v")
	for i := 0; i < 5; i++ {
		update1(t, db, tid, rid, fmt.Sprintf("v%d", i))
	}
	db.Close()

	db2 := openPersistent(t, dir)
	defer db2.Close()
	if live := db2.Space().Live(); live != 0 {
		t.Fatalf("recovered version space holds %d versions, want 0 (single post-image per row)", live)
	}
	if got, _ := get1(t, db2, db2.TableID("T"), rid); got != "v4" {
		t.Fatalf("latest image = %q", got)
	}
}

func TestPersistentWorkloadWithGCSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{
		Persistence:        &Persistence{Dir: dir},
		GC:                 gc.Periods{GT: time.Millisecond, TG: 2 * time.Millisecond, SI: 4 * time.Millisecond},
		LongLivedThreshold: time.Millisecond,
		AutoGC:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tid := mustCreate(t, db, "T")
	var rids []ts.RID
	for i := 0; i < 8; i++ {
		rids = append(rids, insert1(t, db, tid, "init"))
	}
	want := make(map[ts.RID]string)
	for round := 0; round < 30; round++ {
		rid := rids[round%len(rids)]
		img := fmt.Sprintf("r%d", round)
		update1(t, db, tid, rid, img)
		want[rid] = img
		if round%10 == 5 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Close()

	db2 := openPersistent(t, dir)
	defer db2.Close()
	for _, rid := range rids {
		img, _ := get1(t, db2, db2.TableID("T"), rid)
		expect := want[rid]
		if expect == "" {
			expect = "init"
		}
		if img != expect {
			t.Fatalf("rid %d recovered %q, want %q", rid, img, expect)
		}
	}
}

func TestDDLAfterCheckpointRecovered(t *testing.T) {
	dir := t.TempDir()
	db := openPersistent(t, dir)
	mustCreate(t, db, "BEFORE")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := mustCreate(t, db, "AFTER")
	rid := insert1(t, db, after, "row")
	db.Close()

	db2 := openPersistent(t, dir)
	defer db2.Close()
	if db2.TableID("BEFORE") == 0 {
		t.Fatal("checkpointed table lost")
	}
	got := db2.TableID("AFTER")
	if got != after {
		t.Fatalf("post-checkpoint table ID %d, want %d", got, after)
	}
	if img, _ := get1(t, db2, got, rid); img != "row" {
		t.Fatalf("post-checkpoint row = %q", img)
	}
	// The recovered catalog allocates fresh IDs past the recovered ones.
	third := mustCreate(t, db2, "THIRD")
	if third <= after {
		t.Fatalf("new table ID %d collides with recovered %d", third, after)
	}
}

// TestConcurrentCommitLogIsDenseAndAscending drives the WAL from eight
// committing goroutines at once. LogCommit keeps no lock of its own: its
// reused record is safe only because commit groups are led one at a time
// (run under -race), and the log must show it — one record per group, CIDs
// dense and ascending in log order — and recover to the same state.
func TestConcurrentCommitLogIsDenseAndAscending(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Persistence: &Persistence{Dir: dir, Sync: false}})
	if err != nil {
		t.Fatal(err)
	}
	tid := mustCreate(t, db, "T")
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
					_, err := tx.Insert(tid, []byte(fmt.Sprintf("w%d-%d", w, i)))
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Manager().Stats()
	db.Close()
	if st.TxnsCommitted != writers*perWriter {
		t.Fatalf("committed %d transactions, want %d", st.TxnsCommitted, writers*perWriter)
	}

	var last ts.CID
	members := 0
	if err := wal.ReadAll(dir, func(r *wal.Record) error {
		if r.Kind != wal.KindGroup {
			return nil
		}
		if r.CID != last+1 {
			return fmt.Errorf("group record CID %d follows CID %d", r.CID, last)
		}
		last = r.CID
		members += len(r.Ops) // one insert per transaction
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != st.LastCID || int64(last) != st.GroupsCommitted || members != writers*perWriter {
		t.Fatalf("log ends at CID %d with %d member operations; engine committed %d transactions in %d groups up to CID %d",
			last, members, st.TxnsCommitted, st.GroupsCommitted, st.LastCID)
	}

	db2 := openPersistent(t, dir)
	defer db2.Close()
	if got := db2.Manager().CurrentTS(); got != last {
		t.Fatalf("recovered commit timestamp %d, want %d", got, last)
	}
	rows := 0
	if err := db2.Exec(txn.StmtSI, nil, func(tx *Tx) error {
		return tx.Scan(db2.TableID("T"), func(ts.RID, []byte) bool { rows++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	if rows != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", rows, writers*perWriter)
	}
}

// TestOpenRefusesLaneRecord: a log written while lanes were WAL records
// (kind 6) is refused at open, naming the retired record and the segment.
func TestOpenRefusesLaneRecord(t *testing.T) {
	dir := t.TempDir()
	payload := []byte{6, 7, 0, 0, 0, 5, 0, 0, 0, 'a', ':', 'I', 'N', 'T', 9, 0, 0, 0, 0, 0, 0, 0}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	const seg = "log-0000000000000001.wal"
	if err := os.WriteFile(filepath.Join(dir, seg), append(frame, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Persistence: &Persistence{Dir: dir}})
	if !errors.Is(err, wal.ErrRetiredFormat) || !strings.Contains(err.Error(), seg) ||
		!strings.Contains(err.Error(), "HTAP lane records") {
		t.Fatalf("open over a lane record: %v, want ErrRetiredFormat naming %s and the lane record", err, seg)
	}
}
