package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// errShutdown aborts a retry loop when the chaos phase ends mid-transfer.
// Deliberately not transient: core.Retry returns it immediately, and the
// worker can tell "skipped, nothing committed" apart from a real ack.
var errShutdown = errors.New("chaos: workload stopping")

// bank drives concurrent transfers through the pooled client while the
// nemesis operates, and keeps the ground truth the durability invariant is
// checked against: which ledger entries were acknowledged and which ended
// ambiguous.
type bank struct {
	c   *cluster
	rep *Report

	stop chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	acked     map[string]struct{} // ledger ids whose COMMIT was acknowledged
	ambiguous map[string]struct{} // ledger ids whose COMMIT outcome is unknown

	unexpected atomic.Int64 // non-transient, non-ambiguous workload errors
	lastErr    atomic.Value // string
}

func startBank(c *cluster, opt Options, rep *Report) *bank {
	b := &bank{
		c: c, rep: rep,
		stop:      make(chan struct{}),
		acked:     make(map[string]struct{}),
		ambiguous: make(map[string]struct{}),
	}
	for w := 0; w < opt.Workers; w++ {
		b.wg.Add(1)
		// Each worker draws from its own stream so the transfer sequence is
		// fixed by (seed, worker) regardless of scheduling.
		go b.worker(w, rand.New(rand.NewSource(opt.Seed+int64(w)*7919)))
	}
	// Two conservation checkers: one reads through the chaotic client path,
	// one directly on the engine — so invariant 1 keeps being exercised even
	// while the network side is fully down.
	b.wg.Add(2)
	go b.remoteChecker()
	go b.localChecker()
	return b
}

func (b *bank) halt() {
	close(b.stop)
	b.wg.Wait()
}

func (b *bank) stopping() bool {
	select {
	case <-b.stop:
		return true
	default:
		return false
	}
}

// worker runs transfers until the chaos phase ends. Every logical transfer
// gets a unique ledger id; a transient failure retries the whole transfer
// under the same id (nothing of the failed attempt survived), an ambiguous
// commit abandons the id to the ambiguous set, and an acknowledged commit
// moves it to the acked set.
func (b *bank) worker(id int, rng *rand.Rand) {
	defer b.wg.Done()
	for seq := 0; ; seq++ {
		if b.stopping() {
			return
		}
		from := rng.Intn(len(b.c.acctRIDs))
		to := rng.Intn(len(b.c.acctRIDs) - 1)
		if to >= from {
			to++
		}
		amount := int64(1 + rng.Intn(50))
		lid := fmt.Sprintf("w%d-%d", id, seq)
		err := core.Retry(6, 10*time.Millisecond, func() error {
			if b.stopping() {
				return errShutdown // non-transient: Retry returns it at once
			}
			return b.transferOnce(from, to, amount, lid)
		})
		switch {
		case err == nil:
			// The commit was acknowledged — record it even if the phase just
			// ended, or the durability check would see an unclassified entry.
			b.mu.Lock()
			b.acked[lid] = struct{}{}
			b.mu.Unlock()
			atomic.AddInt64(&b.rep.Acked, 1)
			if b.stopping() {
				return
			}
		case errors.Is(err, errShutdown):
			return // nothing was committed for this lid
		case errors.Is(err, core.ErrCommitAmbiguous):
			b.mu.Lock()
			b.ambiguous[lid] = struct{}{}
			b.mu.Unlock()
			atomic.AddInt64(&b.rep.Ambiguous, 1)
		case core.IsTransient(err):
			atomic.AddInt64(&b.rep.GaveUp, 1) // retries exhausted; nothing committed
		case errors.Is(err, client.ErrClosed):
			return
		default:
			b.unexpected.Add(1)
			b.lastErr.Store(err.Error())
		}
	}
}

// transferOnce is one transactional attempt: move amount between two
// accounts and record the movement in the ledger, all under transaction-level
// snapshot isolation, in two frames — [BEGIN, both reads], then [both
// updates, the ledger insert, COMMIT]. Under the nemesis either frame can
// stop at any operation or lose its connection.
func (b *bank) transferOnce(from, to int, amount int64, lid string) error {
	tx, err := b.c.cl.Begin(true)
	if err != nil {
		return err
	}
	defer tx.Abort()
	fromRID, toRID := b.c.acctRIDs[from], b.c.acctRIDs[to]
	q := tx.Batch()
	fromGet, toGet := q.Get(b.c.accounts, fromRID), q.Get(b.c.accounts, toRID)
	if err := q.Do(); err != nil {
		return err
	}
	fb, err := parseBalance(q.Image(fromGet))
	if err != nil {
		return err
	}
	tb, err := parseBalance(q.Image(toGet))
	if err != nil {
		return err
	}
	q.Update(b.c.accounts, fromRID, formatBalance(fb-amount))
	q.Update(b.c.accounts, toRID, formatBalance(tb+amount))
	q.Insert(b.c.ledger, []byte(lid+":"+strconv.FormatInt(amount, 10)))
	q.Commit()
	return q.Do()
}

// remoteChecker verifies conservation through the client path: a snapshot
// transaction scans the accounts table and sums it. Transport-layer failures
// are expected weather; a successful read with the wrong sum is an isolation
// violation.
func (b *bank) remoteChecker() {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(40 * time.Millisecond):
		}
		tx, err := b.c.cl.Begin(true)
		if err != nil {
			continue
		}
		sum, n, err := sumAccountsTx(tx, b.c.accounts)
		tx.Abort()
		if err != nil || b.stopping() {
			continue
		}
		atomic.AddInt64(&b.rep.ConservationChecks, 1)
		if n == len(b.c.acctRIDs) && sum != b.c.total {
			b.violation("conservation (remote): snapshot sum %d != %d", sum, b.c.total)
		}
	}
}

// localChecker verifies conservation directly on the primary engine, so the
// invariant stays under test even when the nemesis has the whole network
// dark.
func (b *bank) localChecker() {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(25 * time.Millisecond):
		}
		sum, n, err := sumAccountsLocal(b.c.db, b.c.accounts)
		if err != nil {
			continue // transient engine pressure; the snapshot never formed
		}
		atomic.AddInt64(&b.rep.ConservationChecks, 1)
		if n == len(b.c.acctRIDs) && sum != b.c.total {
			b.violation("conservation (local): snapshot sum %d != %d", sum, b.c.total)
		}
	}
}

// violation records an invariant violation under the bank's lock (Report is
// not concurrency-safe by itself).
func (b *bank) violation(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rep.violatef(format, args...)
}

// sets returns copies of the acked and ambiguous ledger-id sets.
func (b *bank) sets() (acked, ambiguous map[string]struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	acked = make(map[string]struct{}, len(b.acked))
	for k := range b.acked {
		acked[k] = struct{}{}
	}
	ambiguous = make(map[string]struct{}, len(b.ambiguous))
	for k := range b.ambiguous {
		ambiguous[k] = struct{}{}
	}
	return acked, ambiguous
}

// --- shared read/format helpers ---

func formatBalance(v int64) []byte { return []byte(strconv.FormatInt(v, 10)) }

func parseBalance(img []byte) (int64, error) {
	return strconv.ParseInt(string(img), 10, 64)
}

// sumAccountsTx sums every account image visible to the remote transaction.
func sumAccountsTx(tx *client.Tx, tid ts.TableID) (sum int64, n int, err error) {
	var perr error
	err = tx.Scan(tid, func(_ ts.RID, img []byte) bool {
		v, e := parseBalance(img)
		if e != nil {
			perr = e
			return false
		}
		sum += v
		n++
		return true
	})
	if err == nil {
		err = perr
	}
	return sum, n, err
}

// sumAccountsLocal sums the accounts table in one statement-level snapshot
// on the engine itself.
func sumAccountsLocal(db *core.DB, tid ts.TableID) (sum int64, n int, err error) {
	var perr error
	err = db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		sum, n = 0, 0
		return tx.Scan(tid, func(_ ts.RID, img []byte) bool {
			v, e := parseBalance(img)
			if e != nil {
				perr = e
				return false
			}
			sum += v
			n++
			return true
		})
	})
	if err == nil {
		err = perr
	}
	return sum, n, err
}

// insertLocal inserts one record through a local autocommit transaction.
func insertLocal(db *core.DB, tid ts.TableID, img []byte) (ts.RID, error) {
	var rid ts.RID
	err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		var err error
		rid, err = tx.Insert(tid, img)
		return err
	})
	return rid, err
}

// ledgerEntries scans the ledger into id → amount, failing on duplicates.
func ledgerEntries(db *core.DB, tid ts.TableID) (map[string]int64, []string, error) {
	entries := make(map[string]int64)
	var dups []string
	err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		entries = make(map[string]int64)
		dups = dups[:0]
		return tx.Scan(tid, func(_ ts.RID, img []byte) bool {
			id, amtStr, ok := strings.Cut(string(img), ":")
			if !ok {
				dups = append(dups, "malformed:"+string(img))
				return true
			}
			amt, _ := strconv.ParseInt(amtStr, 10, 64)
			if _, seen := entries[id]; seen {
				dups = append(dups, id)
				return true
			}
			entries[id] = amt
			return true
		})
	})
	return entries, dups, err
}
