package core

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"hybridgc/internal/fault"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wal"
)

// openGrouping opens a Sync-logged database whose commit leader waits 200 ms
// for its group, so committers started together commit together.
func openGrouping(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Config{
		Persistence: &Persistence{Dir: dir, Sync: true},
		Txn:         txn.Config{GroupCommitWindow: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// commitTogether inserts each image in its own transaction, all committing
// at once, and returns every commit's error.
func commitTogether(db *DB, tid ts.TableID, imgs [][]byte) []error {
	errs := make([]error, len(imgs))
	var wg sync.WaitGroup
	for i, img := range imgs {
		wg.Add(1)
		go func(i int, img []byte) {
			defer wg.Done()
			errs[i] = db.Exec(txn.StmtSI, nil, func(tx *Tx) error {
				_, err := tx.Insert(tid, img)
				return err
			})
		}(i, img)
	}
	wg.Wait()
	return errs
}

// TestGroupIsOneRecord pins what a commit group costs the log, however many
// members it has: one record and one fsync. Every member's row recovers.
func TestGroupIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	db := openGrouping(t, dir)
	tid := mustCreate(t, db, "T")
	const rounds, members = 3, 8
	groups0, log0 := db.Manager().Stats().GroupsCommitted, db.WAL().MetricsSnapshot()
	for r := 0; r < rounds; r++ {
		imgs := make([][]byte, members)
		for i := range imgs {
			imgs[i] = []byte{byte('a' + r), byte('0' + i)}
		}
		for _, err := range commitTogether(db, tid, imgs) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	groups := db.Manager().Stats().GroupsCommitted - groups0
	log := db.WAL().MetricsSnapshot()
	db.Close()
	if groups >= rounds*members {
		t.Fatalf("%d groups for %d transactions: no group had a second member", groups, rounds*members)
	}
	if d := log.Records - log0.Records; d != groups {
		t.Fatalf("%d groups appended %d records, want one each", groups, d)
	}
	if d := log.Syncs - log0.Syncs; d != groups {
		t.Fatalf("%d groups cost %d fsyncs, want one each", groups, d)
	}
	if d := log.Batches - log0.Batches; d != groups {
		t.Fatalf("Batches grew by %d over %d groups", d, groups)
	}

	db2 := openPersistent(t, dir)
	defer db2.Close()
	if n := db2.ScanCountAt(db2.TableID("T"), db2.Manager().CurrentTS()); n != rounds*members {
		t.Fatalf("recovered %d rows, want %d", n, rounds*members)
	}
}

// TestTornGroupVanishesWhole: a three-member commit group half-written by a
// crash — the early members' operations intact on disk inside the torn frame
// — is applied by nobody: not by recovery, not by a replica catching up from
// that segment. The group acknowledged before it survives intact.
func TestTornGroupVanishesWhole(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := openGrouping(t, dir)
	tid := mustCreate(t, db, "T")
	for _, err := range commitTogether(db, tid, [][]byte{[]byte("a"), []byte("b")}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	acked := db.Manager().CurrentTS()
	ackedSize := db.WAL().Size()

	// Three members of 4 KiB each: whichever the leader puts last, half the
	// frame holds the first member's operation whole.
	imgs := [][]byte{
		bytes.Repeat([]byte("x"), 4096),
		bytes.Repeat([]byte("y"), 4096),
		bytes.Repeat([]byte("z"), 4096),
	}
	fault.Enable(wal.FPAppendTorn, fault.Once())
	for i, err := range commitTogether(db, tid, imgs) {
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("member %d: %v, want the injected failure (did the three form one group?)", i, err)
		}
	}
	fault.Disable(wal.FPAppendTorn)
	db.Close()

	segs, err := wal.Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	raw, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) < ackedSize+4096 {
		t.Fatalf("segment holds %d bytes past the acknowledged %d: the torn group left no intact member behind, so the test proves nothing",
			int64(len(raw))-ackedSize, ackedSize)
	}
	whole := false
	for _, img := range imgs {
		whole = whole || bytes.Contains(raw[ackedSize:], img)
	}
	if !whole {
		t.Fatal("no member image is whole inside the torn frame")
	}

	check := func(who string, db *DB) {
		t.Helper()
		if got := db.Manager().CurrentTS(); got != acked {
			t.Fatalf("%s: commit timestamp %d, want %d (the torn group must not count)", who, got, acked)
		}
		if n := db.ScanCountAt(db.TableID("T"), acked+1); n != 2 {
			t.Fatalf("%s: %d live rows, want the 2 acknowledged ones", who, n)
		}
	}

	// The replica leg first: recovery below cuts the torn tail off. Catch-up
	// is ReadSegmentPayloads on the source, DecodePayload + ApplyRecord here.
	replica, err := Open(Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	// The second pass is a stream overlap: every record CID-dedupes.
	for pass := 0; pass < 2; pass++ {
		if err := wal.ReadSegmentPayloads(segs[0].Path, func(_ uint64, payload []byte) error {
			rec, err := wal.DecodePayload(payload)
			if err != nil {
				return err
			}
			return replica.ApplyRecord(rec)
		}); err != nil {
			t.Fatal(err)
		}
		check("replica", replica)
	}

	recovered := openPersistent(t, dir)
	defer recovered.Close()
	check("recovery", recovered)
}
