package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/engine"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer's public interface; nothing inside the program is
// instrumented. Every transaction feeds the per-kind count/sum aggregates;
// every traceSampleEvery-th keeps its span tree for trace_<workload>.jsonl.

type opKind uint8

const (
	opBegin opKind = iota
	opGet
	opUpdate
	opInsert
	opDelete
	opScan
	opCommit
	opAbort
	nOps
)

var opNames = [nOps]string{"begin", "get", "update", "insert", "delete", "scan", "commit", "abort"}

// span is one line of trace_<workload>.jsonl. Times are nanoseconds since the
// tracer's base. Parent 0 marks a root.
type span struct {
	id, parent uint64
	kind       string
	start, end int64
	worker     int // 1-based TPC-C worker, 0 when not on a worker goroutine
}

type opAgg struct{ cnt, sum int64 }

func (a opAgg) meanUS() float64 {
	if a.cnt == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.cnt) / 1e3
}

// classAgg sums the operations of one class of transaction, by kind.
type classAgg [nOps]opAgg

func (c *classAgg) busy() (cnt, sum int64) {
	for _, o := range c {
		cnt += o.cnt
		sum += o.sum
	}
	return cnt, sum
}

// layerAgg aggregates the spans recorded at one layer boundary ("engine" or
// "client"). TPC-C profiles never scan, so a transaction that did is the
// analyst's and is kept apart: per-transaction figures divide by TPC-C
// transactions only.
type layerAgg struct {
	name  string
	kinds [nOps]string // span kinds, "engine.get" and so on
	// linkRoots: the layer is called on the worker goroutines, so a sampled
	// transaction can name the worker's tpcc.run_one span as its parent.
	linkRoots bool

	mu            sync.Mutex
	tpcc, analyst classAgg
	commitPinned  opAgg // commits of BeginShard transactions (home path)
	commitRouted  opAgg // commits of Begin transactions (router, 2PC-capable)

	// Per-call durations for percentiles; nil when the layer reports none.
	calls  []int32
	ncalls atomic.Int64
}

// workerSlot is a worker goroutine's published state: the id its current
// tpcc.run_one span will carry, and whether a sampled transaction claimed it
// as parent. Only the owning goroutine touches it.
type workerSlot struct {
	worker  int
	rootID  uint64
	sampled bool
}

type tracer struct {
	base   time.Time
	on     atomic.Bool   // spans are recorded only while set
	seq    atomic.Uint64 // transactions seen, for 1-in-k sampling
	nextID atomic.Uint64

	engine, client layerAgg

	slotMu sync.Mutex
	slots  map[uint64]*workerSlot // by goroutine id

	sinkMu  sync.Mutex
	sink    []span
	dropped int64
}

func newTracer(base time.Time, wire bool, window time.Duration) *tracer {
	tr := &tracer{base: base, slots: make(map[uint64]*workerSlot)}
	tr.engine = layerAgg{name: "engine", linkRoots: !wire}
	tr.client = layerAgg{name: "client", linkRoots: true}
	for k, op := range opNames {
		tr.engine.kinds[k] = "engine." + op
		tr.client.kinds[k] = "client." + op
	}
	if wire {
		// Room for 200 000 round trips a second on the traced half of the
		// window, twice what loopback gives here; beyond it only the
		// percentiles stop seeing new calls.
		tr.client.calls = make([]int32, int(window.Seconds()*100_000)+1)
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// goid parses the current goroutine's id from its stack header. It costs
// microseconds, so it runs once per worker at registration and once per
// sampled transaction, never on the common path. Go has no goroutine-local
// storage and tpcc.Backend.Begin takes no context, so this is the only way a
// wrapper shared by both workers can tell whose span tree it is extending.
func goid() uint64 {
	var b [40]byte
	n := runtime.Stack(b[:], false)
	var id uint64
	for _, c := range b[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// register publishes the calling worker goroutine's slot.
func (tr *tracer) register(worker int) *workerSlot {
	s := &workerSlot{worker: worker}
	tr.slotMu.Lock()
	tr.slots[goid()] = s
	tr.slotMu.Unlock()
	return s
}

func (tr *tracer) callerSlot() *workerSlot {
	tr.slotMu.Lock()
	defer tr.slotMu.Unlock()
	return tr.slots[goid()]
}

// emit appends finished spans to the sink, dropping them once the file cap
// is reached.
func (tr *tracer) emit(spans ...span) {
	tr.sinkMu.Lock()
	if len(tr.sink)+len(spans) <= traceMaxSpans {
		tr.sink = append(tr.sink, spans...)
	} else {
		tr.dropped += int64(len(spans))
	}
	tr.sinkMu.Unlock()
}

// writeJSONL writes the kept spans, one JSON object per line.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tr.sinkMu.Lock()
	for _, s := range tr.sink {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"kind":%q,"start_ns":%d,"end_ns":%d,"worker":%d}`+"\n",
			s.id, s.parent, s.kind, s.start, s.end, s.worker)
	}
	tr.sinkMu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// innerTx is what both engine.Tx and client.Tx offer the TPC-C driver.
type innerTx interface {
	tpcc.Txn
	InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error)
}

// tracedTx times every call of one transaction at a layer boundary. It
// satisfies engine.Tx (under the driver or the server) and tpcc.Txn (around
// client.Tx).
type tracedTx struct {
	inner innerTx // an engine.Tx at the engine boundary
	tr    *tracer
	agg   *layerAgg

	pinned bool
	start  int64
	ops    [nOps]opAgg

	// Set when this transaction keeps its span tree.
	sampled    bool
	id, parent uint64
	worker     int
	spans      []span
}

// start prepares to trace a transaction that is about to begin. The sampling
// decision and its goroutine lookup come first, so their cost lands in the
// driver's self time and not in the begin span.
func (tr *tracer) start(agg *layerAgg, pinned bool) *tracedTx {
	t := &tracedTx{tr: tr, agg: agg, pinned: pinned}
	if tr.seq.Add(1)%traceSampleEvery == 0 {
		t.sampled = true
		t.id = tr.nextID.Add(1)
		t.spans = make([]span, 0, 96)
		if agg.linkRoots {
			if slot := tr.callerSlot(); slot != nil {
				t.parent, t.worker = slot.rootID, slot.worker
				slot.sampled = true
			}
		}
	}
	t.start = tr.now()
	return t
}

// began closes the begin span over the transaction the layer returned.
func (t *tracedTx) began(inner innerTx) *tracedTx {
	t.inner = inner
	t.done(opBegin, t.start)
	return t
}

// done closes the operation span that started at t0.
func (t *tracedTx) done(k opKind, t0 int64) {
	t1 := t.tr.now()
	t.ops[k].cnt++
	t.ops[k].sum += t1 - t0
	if t.agg.calls != nil {
		if i := t.agg.ncalls.Add(1) - 1; i < int64(len(t.agg.calls)) {
			t.agg.calls[i] = int32(t1 - t0)
		}
	}
	if t.sampled {
		t.spans = append(t.spans, span{id: t.tr.nextID.Add(1), parent: t.id,
			kind: t.agg.kinds[k], start: t0, end: t1, worker: t.worker})
	}
}

// finish folds the transaction into its layer's aggregates and hands a
// sampled tree to the sink.
func (t *tracedTx) finish() {
	a := t.agg
	a.mu.Lock()
	class := &a.tpcc
	if t.ops[opScan].cnt > 0 {
		class = &a.analyst
	}
	for k := range t.ops {
		class[k].cnt += t.ops[k].cnt
		class[k].sum += t.ops[k].sum
	}
	if c := t.ops[opCommit]; c.cnt > 0 && class == &a.tpcc {
		dst := &a.commitRouted
		if t.pinned {
			dst = &a.commitPinned
		}
		dst.cnt += c.cnt
		dst.sum += c.sum
	}
	a.mu.Unlock()
	if t.sampled {
		t.spans = append(t.spans, span{id: t.id, parent: t.parent, kind: a.name + ".txn",
			start: t.start, end: t.tr.now(), worker: t.worker})
		t.tr.emit(t.spans...)
	}
}

// Isolation and SnapshotTS complete engine.Tx; only the engine boundary's
// callers ask.
func (t *tracedTx) Isolation() txn.Isolation { return t.inner.(engine.Tx).Isolation() }
func (t *tracedTx) SnapshotTS() ts.CID       { return t.inner.(engine.Tx).SnapshotTS() }

func (t *tracedTx) Get(tid ts.TableID, rid ts.RID) ([]byte, error) {
	t0 := t.tr.now()
	img, err := t.inner.Get(tid, rid)
	t.done(opGet, t0)
	return img, err
}

func (t *tracedTx) Insert(tid ts.TableID, img []byte) (ts.RID, error) {
	t0 := t.tr.now()
	rid, err := t.inner.Insert(tid, img)
	t.done(opInsert, t0)
	return rid, err
}

func (t *tracedTx) InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	t0 := t.tr.now()
	rid, err := t.inner.InsertAt(tid, img, hint)
	t.done(opInsert, t0)
	return rid, err
}

func (t *tracedTx) Update(tid ts.TableID, rid ts.RID, img []byte) error {
	t0 := t.tr.now()
	err := t.inner.Update(tid, rid, img)
	t.done(opUpdate, t0)
	return err
}

func (t *tracedTx) Delete(tid ts.TableID, rid ts.RID) error {
	t0 := t.tr.now()
	err := t.inner.Delete(tid, rid)
	t.done(opDelete, t0)
	return err
}

func (t *tracedTx) Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error {
	t0 := t.tr.now()
	err := t.inner.Scan(tid, fn)
	t.done(opScan, t0)
	return err
}

func (t *tracedTx) Commit() error {
	t0 := t.tr.now()
	err := t.inner.Commit()
	t.done(opCommit, t0)
	t.finish()
	return err
}

func (t *tracedTx) Abort() {
	t0 := t.tr.now()
	t.inner.Abort()
	t.done(opAbort, t0)
	t.finish()
}

// tracedEngine records engine.* spans around engine.Tx, at the driver
// boundary (in-process workloads; on shard_cross the engine is shard.Cluster)
// or under the server (wire_durable). Everything but transaction starts is
// the embedded engine's.
type tracedEngine struct {
	engine.Engine
	tr *tracer
}

func (e tracedEngine) Begin(iso txn.Isolation, declared ...ts.TableID) engine.Tx {
	if !e.tr.on.Load() {
		return e.Engine.Begin(iso, declared...)
	}
	t := e.tr.start(&e.tr.engine, false)
	tx := e.Engine.Begin(iso, declared...)
	return t.began(tx)
}

func (e tracedEngine) BeginShard(shard int, iso txn.Isolation, declared ...ts.TableID) (engine.Tx, error) {
	if !e.tr.on.Load() {
		return e.Engine.BeginShard(shard, iso, declared...)
	}
	t := e.tr.start(&e.tr.engine, true)
	tx, err := e.Engine.BeginShard(shard, iso, declared...)
	if err != nil {
		return nil, err
	}
	return t.began(tx), nil
}

// tracedBackend records client.* spans around client.Tx: every call is one
// round trip.
type tracedBackend struct {
	tpcc.ShardedBackend
	tr *tracer
}

func (b tracedBackend) Begin(snapshot bool) (tpcc.Txn, error) {
	if !b.tr.on.Load() {
		return b.ShardedBackend.Begin(snapshot)
	}
	t := b.tr.start(&b.tr.client, false)
	tx, err := b.ShardedBackend.Begin(snapshot)
	if err != nil {
		return nil, err
	}
	return t.began(tx.(innerTx)), nil
}

func (b tracedBackend) BeginShard(shard int, snapshot bool) (tpcc.Txn, error) {
	if !b.tr.on.Load() {
		return b.ShardedBackend.BeginShard(shard, snapshot)
	}
	t := b.tr.start(&b.tr.client, true)
	tx, err := b.ShardedBackend.BeginShard(shard, snapshot)
	if err != nil {
		return nil, err
	}
	return t.began(tx.(innerTx)), nil
}
