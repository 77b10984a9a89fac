package tpcc

import (
	"errors"
	"math/rand"
	"sync/atomic"

	"hybridgc/internal/core"
	"hybridgc/internal/ts"
)

// TxnType enumerates the five TPC-C transaction profiles.
type TxnType int

// The five profiles.
const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	numTxnTypes
)

// String implements fmt.Stringer.
func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	default:
		return "Unknown"
	}
}

// WorkerStats counts per-profile outcomes.
type WorkerStats struct {
	Committed [numTxnTypes]atomic.Int64
	Aborted   [numTxnTypes]atomic.Int64
	Errors    [numTxnTypes]atomic.Int64
	// Cross counts committed transactions that took a remote clause crossing
	// onto another shard (another warehouse, when the backend is unsharded) —
	// the transactions that commit through two-phase commit.
	Cross [numTxnTypes]atomic.Int64
}

// TotalCommitted sums committed transactions across profiles.
func (s *WorkerStats) TotalCommitted() int64 {
	var n int64
	for i := range s.Committed {
		n += s.Committed[i].Load()
	}
	return n
}

// TotalCross sums committed cross-shard transactions across profiles.
func (s *WorkerStats) TotalCross() int64 {
	var n int64
	for i := range s.Cross {
		n += s.Cross[i].Load()
	}
	return n
}

// Worker executes the TPC-C mix against one home warehouse. The paper's
// modification 2: "we allocated a dedicated worker thread for each warehouse
// and let the thread access the home warehouse only."
type Worker struct {
	d     *Driver
	w     uint32
	r     *rand.Rand
	Stats WorkerStats
	// cross is set by a profile when its current execution took a remote
	// clause that crossed shards; RunOne reads it after commit.
	cross bool

	// eager is the batch surface of every transaction that does not bring its
	// own; the rest is what a profile keeps between drawing a transaction and
	// committing it. All of it is reused from one transaction to the next.
	eager  eagerBatch
	supply []uint32
	lines  []orderLineDraft
	rids   []ts.RID
	dlv    []delivery
	items  []uint32
}

// NewWorker builds the worker for warehouse w (1-based).
func (d *Driver) NewWorker(w int) *Worker {
	return &Worker{
		d: d,
		w: uint32(w),
		r: rand.New(rand.NewSource(d.cfg.Seed + int64(w)*7919)),
	}
}

// Warehouse returns the worker's home warehouse id.
func (wk *Worker) Warehouse() uint32 { return wk.w }

// remoteWarehouse draws a uniformly random warehouse other than the home one.
// Callers must ensure Warehouses > 1.
func (wk *Worker) remoteWarehouse() uint32 {
	w := uint32(randRange(wk.r, 1, wk.d.cfg.Warehouses-1))
	if w >= wk.w {
		w++
	}
	return w
}

// pick draws a transaction type from the standard TPC-C mix:
// 45% New-Order, 43% Payment, 4% Order-Status, 4% Delivery, 4% Stock-Level.
func (wk *Worker) pick() TxnType {
	switch n := wk.r.Intn(100); {
	case n < 45:
		return TxnNewOrder
	case n < 88:
		return TxnPayment
	case n < 92:
		return TxnOrderStatus
	case n < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// run dispatches one profile.
func (wk *Worker) run(t TxnType) error {
	switch t {
	case TxnNewOrder:
		return wk.NewOrder()
	case TxnPayment:
		return wk.Payment()
	case TxnOrderStatus:
		return wk.OrderStatus()
	case TxnDelivery:
		return wk.Delivery()
	default:
		return wk.StockLevel()
	}
}

// RunOne executes one randomly drawn transaction and records its outcome.
// Intentional New-Order rollbacks count as aborts, not errors.
func (wk *Worker) RunOne() error {
	t := wk.pick()
	wk.cross = false
	err := wk.run(t)
	switch {
	case err == nil:
		wk.Stats.Committed[t].Add(1)
		if wk.cross {
			wk.Stats.Cross[t].Add(1)
		}
		return nil
	case errors.Is(err, errRollback):
		wk.Stats.Aborted[t].Add(1)
		return nil
	case core.IsTransient(err):
		// Retries exhausted under contention or version-space pressure: the
		// transaction aborted cleanly, the benchmark goes on.
		wk.Stats.Aborted[t].Add(1)
		return nil
	default:
		wk.Stats.Errors[t].Add(1)
		return err
	}
}

// Run executes up to iterations transactions, stopping early when stop is
// closed. It returns the first hard error, if any.
func (wk *Worker) Run(iterations int, stop <-chan struct{}) error {
	for i := 0; i < iterations; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		if err := wk.RunOne(); err != nil {
			return err
		}
	}
	return nil
}
