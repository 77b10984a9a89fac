package tpcc

import "hybridgc/internal/ts"

// batch is how a profile issues its operations: it queues the reads and
// writes that do not depend on each other and Do()es them together. Each
// queueing method returns the operation's index, which reads its result
// after Do and until the next one; Do returns the first failure, nothing
// after which ran, and Ran says how many operations before it succeeded.
// Commit is the last thing a profile queues: it runs only if everything
// before it did.
//
// What a Do costs depends on what the transaction is. Over the wire
// (*client.Batch, which this interface is cut from) it is one round trip
// however many operations it carries; in process (eagerBatch) every operation
// ran the moment it was queued and Do only reports.
type batch interface {
	Get(tid ts.TableID, rid ts.RID) int
	Insert(tid ts.TableID, img []byte) int
	InsertAt(tid ts.TableID, img []byte, hint int) int
	Update(tid ts.TableID, rid ts.RID, img []byte) int
	Delete(tid ts.TableID, rid ts.RID) int
	Commit()
	Do() error
	Ran() int
	Image(i int) []byte
	RID(i int) ts.RID
}

// eagerBatch is the batch surface over any Txn: an operation executes as it
// is queued, unless an earlier one since the last Do failed. It is reused
// from transaction to transaction (a Worker owns one), so in the steady
// state it allocates nothing.
type eagerBatch struct {
	tx Txn
	// cur collects the results of the operations queued since the last Do,
	// the first stop of which succeeded before err; res holds those the last
	// Do reported, the first ran of which succeeded.
	cur, res  []eagerResult
	stop, ran int
	err       error
}

type eagerResult struct {
	img []byte
	rid ts.RID
}

// reset binds the batch to a transaction that has just begun.
func (e *eagerBatch) reset(tx Txn) {
	*e = eagerBatch{tx: tx, cur: e.cur[:0], res: e.res[:0]}
}

// add queues one operation: it runs unless an earlier one failed, and its
// result takes the next index.
func (e *eagerBatch) add(run func(r *eagerResult) error) int {
	e.cur = append(e.cur, eagerResult{})
	i := len(e.cur) - 1
	if e.err == nil {
		if e.err = run(&e.cur[i]); e.err != nil {
			e.stop = i
		}
	}
	return i
}

func (e *eagerBatch) Get(tid ts.TableID, rid ts.RID) int {
	return e.add(func(r *eagerResult) (err error) {
		r.img, err = e.tx.Get(tid, rid)
		return err
	})
}

func (e *eagerBatch) Insert(tid ts.TableID, img []byte) int {
	return e.add(func(r *eagerResult) (err error) {
		r.rid, err = e.tx.Insert(tid, img)
		return err
	})
}

func (e *eagerBatch) InsertAt(tid ts.TableID, img []byte, hint int) int {
	return e.add(func(r *eagerResult) (err error) {
		r.rid, err = insertAt(e.tx, tid, img, hint)
		return err
	})
}

func (e *eagerBatch) Update(tid ts.TableID, rid ts.RID, img []byte) int {
	return e.add(func(*eagerResult) error { return e.tx.Update(tid, rid, img) })
}

func (e *eagerBatch) Delete(tid ts.TableID, rid ts.RID) int {
	return e.add(func(*eagerResult) error { return e.tx.Delete(tid, rid) })
}

func (e *eagerBatch) Commit() {
	e.add(func(*eagerResult) error { return e.tx.Commit() })
}

func (e *eagerBatch) Do() error {
	err := e.err
	if err == nil {
		e.stop = len(e.cur)
	}
	e.res, e.ran, e.cur, e.err = e.cur, e.stop, e.res[:0], nil
	return err
}

func (e *eagerBatch) Ran() int { return e.ran }

// Image and RID read a result of the last Do; like the wire's, an operation
// that did not run has none.
func (e *eagerBatch) Image(i int) []byte {
	if i >= e.ran {
		return nil
	}
	return e.res[i].img
}

func (e *eagerBatch) RID(i int) ts.RID {
	if i >= e.ran {
		return 0
	}
	return e.res[i].rid
}
