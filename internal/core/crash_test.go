package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"hybridgc/internal/ts"
)

// copyDir snapshots the persistence directory while the database is live —
// the moral equivalent of pulling the plug at an arbitrary instant (file
// copies observe torn tails exactly like a crash would). Log segments are
// copied before the checkpoint: a checkpoint observed later than the
// segments can only be newer, which keeps the image a consistent commit
// prefix (an older checkpoint next to later-pruned segments would fake a
// gap no real crash can produce, since pruning happens strictly after the
// covering checkpoint is durable). Files pruned mid-copy are skipped.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	copyOne := func(name string) {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			if os.IsNotExist(err) {
				return // pruned between listing and read: a crash would miss it too
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "checkpoint.ckpt" {
			continue
		}
		copyOne(e.Name())
	}
	copyOne("checkpoint.ckpt")
}

// TestCrashRecoveryPrefix runs a serial counter workload with fsync-free
// logging and periodic checkpoints, snapshots the directory at random
// moments, and verifies that every snapshot recovers to an exact commit
// prefix: a single row updated once per commit must recover to value k iff
// exactly the first k commits survived, with no gaps and no phantoms.
func TestCrashRecoveryPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{
		Persistence: &Persistence{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	tid := mustCreate(t, db, "COUNTER")
	rid := insert1(t, db, tid, "0")

	// Writers and the copier interleave: a concurrent writer goroutine
	// keeps committing while the main goroutine snapshots the directory, so
	// copies land at arbitrary points inside commit streams.
	copies := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 400; i++ {
			update1(t, db, tid, rid, strconv.Itoa(i))
			if i%100 == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for {
		select {
		case <-done:
		default:
			copyDir(t, dir, filepath.Join(dir, "..", fmt.Sprintf("crash-%d", copies)))
			copies++
			time.Sleep(500 * time.Microsecond)
			continue
		}
		break
	}
	db.Close()
	// One final copy of the fully flushed state.
	copyDir(t, dir, filepath.Join(dir, "..", fmt.Sprintf("crash-%d", copies)))
	copies++

	n := copies
	if n < 3 {
		t.Fatalf("only %d crash images captured", n)
	}
	prev := int64(-1)
	for i := 0; i < n; i++ {
		crashDir := filepath.Join(dir, "..", fmt.Sprintf("crash-%d", i))
		rec, err := Open(Config{
			Persistence: &Persistence{Dir: crashDir},
		})
		if err != nil {
			t.Fatalf("crash image %d failed to recover: %v", i, err)
		}
		img, ok := rec.ReadAt(rec.TableID("COUNTER"), rid, rec.Manager().CurrentTS())
		if !ok {
			t.Fatalf("crash image %d lost the counter row", i)
		}
		v, err := strconv.ParseInt(string(img), 10, 64)
		if err != nil {
			t.Fatalf("crash image %d recovered garbage %q", i, img)
		}
		if v < 0 || v > 400 {
			t.Fatalf("crash image %d recovered impossible value %d", i, v)
		}
		// Later crash images must never recover less than earlier ones
		// (the log only grows between copies).
		if v < prev {
			t.Fatalf("crash image %d recovered %d after image %d recovered %d", i, v, i-1, prev)
		}
		prev = v
		// The recovered commit timestamp and the counter agree: value k
		// means exactly the first k update commits (after the seed inserts)
		// are present.
		rec.Close()
	}
	// The final crash image, taken after the last update, must hold a high
	// counter (flushed-but-unsynced logging loses at most the OS cache,
	// which a same-process file copy observes).
	if prev < 300 {
		t.Fatalf("final crash image recovered only %d of 400 updates", prev)
	}
	// And the real directory recovers the full 400.
	final, err := Open(Config{Persistence: &Persistence{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	img, _ := final.ReadAt(final.TableID("COUNTER"), rid, final.Manager().CurrentTS())
	if string(img) != "400" {
		t.Fatalf("clean restart recovered %q, want 400", img)
	}
}

// TestCrashDuringCheckpoint interleaves directory snapshots with checkpoint
// activity specifically: a crash image may contain a fresh checkpoint plus
// pruned or half-pruned segments, and must still recover a valid prefix.
func TestCrashDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{
		Persistence: &Persistence{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	tid := mustCreate(t, db, "T")
	var rids []ts.RID
	for i := 0; i < 4; i++ {
		rids = append(rids, insert1(t, db, tid, "x"))
	}
	for round := 0; round < 20; round++ {
		for _, rid := range rids {
			update1(t, db, tid, rid, fmt.Sprintf("r%d", round))
		}
		copyDir(t, dir, filepath.Join(dir, "..", fmt.Sprintf("ckpt-crash-%d", round)))
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	for round := 0; round < 20; round++ {
		crashDir := filepath.Join(dir, "..", fmt.Sprintf("ckpt-crash-%d", round))
		rec, err := Open(Config{Persistence: &Persistence{Dir: crashDir}})
		if err != nil {
			t.Fatalf("round %d image failed: %v", round, err)
		}
		for _, rid := range rids {
			if _, ok := rec.ReadAt(rec.TableID("T"), rid, rec.Manager().CurrentTS()); !ok {
				t.Fatalf("round %d image lost rid %d", round, rid)
			}
		}
		rec.Close()
	}
}
