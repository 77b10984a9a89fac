package server

import (
	"testing"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
	"hybridgc/internal/wire"
)

// batchOp is one operation of a hand-built BATCH request.
type batchOp struct {
	verb byte
	body []byte
}

func kvBody(tid ts.TableID, rid ts.RID, img []byte) []byte {
	w := (&wire.Builder{}).U32(uint32(tid)).U64(uint64(rid))
	if img != nil {
		w.Bytes(img)
	}
	return w.Take()
}

// batch sends ops as one BATCH frame and returns the items of the answer.
func (rc *rawConn) batch(t *testing.T, ops ...batchOp) (statuses []byte, bodies []*wire.Parser) {
	t.Helper()
	rc.sendBatch(t, ops...)
	return rc.recvBatch(t)
}

func (rc *rawConn) sendBatch(t *testing.T, ops ...batchOp) {
	t.Helper()
	w := &wire.Builder{}
	at := w.BeginBatch()
	for _, op := range ops {
		mark := w.BeginItem(op.verb)
		w.Raw(op.body)
		w.EndItem(mark)
	}
	w.EndBatch(at, len(ops))
	rc.send(t, wire.OpBatch, w.Take())
}

func (rc *rawConn) recvBatch(t *testing.T) (statuses []byte, bodies []*wire.Parser) {
	t.Helper()
	status, body, err := wire.ReadFrame(rc.br)
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StOK {
		r := wire.NewParser(body)
		t.Fatalf("batch refused whole: code %d %q", r.U16(), r.Str())
	}
	items, err := wire.ReadBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	for items.Len() > 0 {
		st, b := items.Next()
		statuses = append(statuses, st)
		bodies = append(bodies, wire.NewParser(b))
	}
	return statuses, bodies
}

// seedKV creates a record table holding the given images and returns their
// RIDs.
func seedKV(t *testing.T, db *core.DB, imgs ...string) (ts.TableID, []ts.RID) {
	t.Helper()
	tid, err := db.CreateTable("KV")
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]ts.RID, len(imgs))
	err = db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
		for i, img := range imgs {
			if rids[i], err = tx.Insert(tid, []byte(img)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tid, rids
}

// TestBatchStopsAtFirstFailure: a write conflict in the middle of a batch is
// the last item of the answer. Nothing after it runs — not the later UPDATE,
// not the trailing COMMIT — and the transaction is still open to roll back.
func TestBatchStopsAtFirstFailure(t *testing.T) {
	srv, db, addr := newTestServer(t, Config{})
	tid, rids := seedKV(t, db, "a0", "b0")

	// Another transaction holds an uncommitted head on the first record.
	holder := db.Begin(txn.StmtSI)
	defer holder.Abort()
	if err := holder.Update(tid, rids[0], []byte("held")); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	rc.hello(t, "")
	errsBefore := srv.requestErrors.Value()
	statuses, bodies := rc.batch(t,
		batchOp{wire.OpBegin, []byte{0}},
		batchOp{wire.OpGet, kvBody(tid, rids[1], nil)},
		batchOp{wire.OpUpdate, kvBody(tid, rids[0], []byte("a1"))},
		batchOp{wire.OpUpdate, kvBody(tid, rids[1], []byte("b1"))},
		batchOp{wire.OpCommit, nil},
	)
	if len(statuses) != 3 || statuses[0] != wire.StOK || statuses[1] != wire.StOK || statuses[2] != wire.StErr {
		t.Fatalf("statuses = %v, want [OK OK ERR]", statuses)
	}
	if img := bodies[1].Bytes(); string(img) != "b0" {
		t.Fatalf("GET inside the batch read %q", img)
	}
	if code := bodies[2].U16(); code != wire.ECodeWriteConflict {
		t.Fatalf("failure code %d, want ECodeWriteConflict", code)
	}
	if got := srv.requestErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("RequestErrors moved by %d, want 1", got)
	}

	// COMMIT did not run: the transaction is there for ROLLBACK to end.
	rc.send(t, wire.OpRollback, nil)
	if status, r := rc.recv(t); status != wire.StOK {
		t.Fatalf("ROLLBACK after the stopped batch: code %d %q", r.U16(), r.Str())
	}
	rc.send(t, wire.OpGet, kvBody(tid, rids[1], nil))
	if status, r := rc.recv(t); status != wire.StOK || string(r.Bytes()) != "b0" {
		t.Fatalf("the UPDATE after the failure ran (status %d)", status)
	}
}

// TestBatchFailedBeginRunsNothing: when the BEGINSHARD at the head of a
// transaction's first frame fails, the writes behind it must not run as
// autocommit statements.
func TestBatchFailedBeginRunsNothing(t *testing.T) {
	_, db, addr := newTestServer(t, Config{})
	tid, _ := seedKV(t, db, "a0")
	created := db.Stats().VersionsCreated

	rc := dialRaw(t, addr)
	rc.hello(t, "")
	statuses, bodies := rc.batch(t,
		batchOp{wire.OpBeginShard, (&wire.Builder{}).U32(7).Bool(false).Take()},
		batchOp{wire.OpInsert, (&wire.Builder{}).U32(uint32(tid)).Bytes([]byte("stray")).Take()},
		batchOp{wire.OpCommit, nil},
	)
	if len(statuses) != 1 || statuses[0] != wire.StErr {
		t.Fatalf("statuses = %v, want [ERR]", statuses)
	}
	if code, msg := bodies[0].U16(), bodies[0].Str(); code != wire.ECodeGeneric || msg == "" {
		t.Fatalf("failure = code %d %q", code, msg)
	}
	if got := db.Stats().VersionsCreated; got != created {
		t.Fatalf("VersionsCreated %d -> %d: a write ran outside a transaction", created, got)
	}
}

// TestBatchRefusesVerbs: HELLO, REPLSTREAM and BATCH are not operations of a
// batch, and a batch whose framing does not add up is refused whole.
func TestBatchRefusesVerbs(t *testing.T) {
	_, _, addr := newTestServer(t, Config{})
	rc := dialRaw(t, addr)
	rc.hello(t, "")
	for _, verb := range []byte{wire.OpHello, wire.OpReplStream, wire.OpBatch} {
		statuses, bodies := rc.batch(t, batchOp{wire.OpPing, nil}, batchOp{verb, nil}, batchOp{wire.OpPing, nil})
		if len(statuses) != 2 || statuses[0] != wire.StOK || statuses[1] != wire.StErr {
			t.Fatalf("verb %d inside a batch: statuses %v", verb, statuses)
		}
		if code := bodies[1].U16(); code != wire.ECodeBadRequest {
			t.Fatalf("verb %d inside a batch: code %d, want ECodeBadRequest", verb, code)
		}
	}
	// Two items claimed, one present.
	rc.send(t, wire.OpBatch, []byte{0, 2, wire.OpPing, 0, 0, 0, 0})
	if status, r := rc.recv(t); status != wire.StErr || r.U16() != wire.ECodeBadRequest {
		t.Fatalf("short batch: status %d", status)
	}
	// The session survives both.
	rc.send(t, wire.OpPing, nil)
	if status, _ := rc.recv(t); status != wire.StOK {
		t.Fatal("PING after refused batches failed")
	}
}

// tableCounts counts the rows of each TPC-C table visible to a fresh
// snapshot and collects D_NEXT_O_ID per district RID.
func tableCounts(t *testing.T, be tpcc.Backend, drv *tpcc.Driver) (map[string]int, map[ts.RID]uint32) {
	t.Helper()
	tx, err := be.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	counts, next := make(map[string]int), make(map[ts.RID]uint32)
	for name, tid := range drv.TableIDsByName() {
		err := tx.Scan(tid, func(rid ts.RID, img []byte) bool {
			counts[name]++
			if name == tpcc.TableDistrict {
				row, err := tpcc.DecodeDistrict(img)
				if err != nil {
					t.Error(err)
				}
				next[rid] = row.NextOID
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return counts, next
}

// bothSurfaces runs fn against a freshly loaded TPC-C database twice: in
// process, where the profiles use the eager batch surface, and over
// loopback, where they use the client's.
func bothSurfaces(t *testing.T, cfg tpcc.Config, fn func(t *testing.T, be tpcc.Backend, drv *tpcc.Driver)) {
	t.Run("eager", func(t *testing.T) {
		db, err := core.Open(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		be := tpcc.LocalBackend(db)
		drv, err := tpcc.NewWithBackend(be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Load(); err != nil {
			t.Fatal(err)
		}
		fn(t, be, drv)
	})
	t.Run("client", func(t *testing.T) {
		_, _, addr := newTestServer(t, Config{})
		cl, err := client.Dial(client.Config{Addr: addr, MaxConns: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		be := tpcc.RemoteBackend(cl)
		drv, err := tpcc.NewWithBackend(be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Load(); err != nil {
			t.Fatal(err)
		}
		fn(t, be, drv)
	})
}

// TestTPCCSurfacesAgree: one seeded worker generates the same transactions
// whichever batch surface carries them, so both databases end with the same
// row counts and order ids, and both are consistent.
func TestTPCCSurfacesAgree(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 3, CustomersPerDistrict: 10, Items: 25, Seed: 11}
	type outcome struct {
		counts map[string]int
		next   map[ts.RID]uint32
	}
	var got []outcome
	bothSurfaces(t, cfg, func(t *testing.T, be tpcc.Backend, drv *tpcc.Driver) {
		if err := drv.NewWorker(1).Run(400, nil); err != nil {
			t.Fatal(err)
		}
		if err := drv.Check(); err != nil {
			t.Fatalf("consistency: %v", err)
		}
		counts, next := tableCounts(t, be, drv)
		got = append(got, outcome{counts, next})
	})
	if len(got) != 2 {
		t.Fatal("a surface did not finish")
	}
	eager, remote := got[0], got[1]
	if eager.counts[tpcc.TableOrders] == 0 || eager.counts[tpcc.TableNewOrder] == eager.counts[tpcc.TableOrders] {
		t.Fatalf("the run did not order and deliver: %v", eager.counts)
	}
	for name, n := range eager.counts {
		if remote.counts[name] != n {
			t.Errorf("%s: %d rows in process, %d over the wire", name, n, remote.counts[name])
		}
	}
	for rid, oid := range eager.next {
		if remote.next[rid] != oid {
			t.Errorf("district %d: D_NEXT_O_ID %d in process, %d over the wire", rid, oid, remote.next[rid])
		}
	}
}

// TestNewOrderRepeatedItem: with a single item every line of a New-Order
// draws from the same STOCK row, and all of the frame's reads precede its
// writes. The row must still end up reflecting every line.
func TestNewOrderRepeatedItem(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, CustomersPerDistrict: 5, Items: 1, Seed: 3}
	bothSurfaces(t, cfg, func(t *testing.T, be tpcc.Backend, drv *tpcc.Driver) {
		ids := drv.TableIDsByName()
		readStock := func() tpcc.Stock {
			tx, err := be.Begin(true)
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Abort()
			img, err := tx.Get(ids[tpcc.TableStock], 1)
			if err != nil {
				t.Fatal(err)
			}
			row, err := tpcc.DecodeStock(img)
			if err != nil {
				t.Fatal(err)
			}
			return row
		}
		before := readStock()
		if err := drv.NewWorker(1).Run(80, nil); err != nil {
			t.Fatal(err)
		}
		after := readStock()

		// Every committed order line drew from the one row, in RID order.
		var lines uint32
		var ytd int64
		qty := before.Qty
		tx, err := be.Begin(true)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		err = tx.Scan(ids[tpcc.TableOrderLine], func(_ ts.RID, img []byte) bool {
			ol, err := tpcc.DecodeOrderLine(img)
			if err != nil {
				t.Error(err)
			}
			lines++
			ytd += int64(ol.Qty)
			if q := int32(ol.Qty); qty >= q+10 {
				qty -= q
			} else {
				qty = qty - q + 91
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if lines < 100 {
			t.Fatalf("only %d order lines: the run did not repeat items", lines)
		}
		if after.OrderCnt-before.OrderCnt != lines || after.YTD-before.YTD != ytd || after.Qty != qty {
			t.Fatalf("STOCK reflects %d lines, quantity %d drawn, %d left; ORDER-LINE holds %d, %d, %d",
				after.OrderCnt-before.OrderCnt, after.YTD-before.YTD, after.Qty, lines, ytd, qty)
		}
	})
}

// TestStockLevelResumesAfterMissingLine: an order line the driver knows of
// but the snapshot cannot read stops the batch it is read in. Stock-Level
// tolerates that: it keeps what ran, skips the line and goes on after it —
// wherever in the batch the line sits.
func TestStockLevelResumesAfterMissingLine(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 1, CustomersPerDistrict: 10, Items: 25, Seed: 5}
	bothSurfaces(t, cfg, func(t *testing.T, be tpcc.Backend, drv *tpcc.Driver) {
		wk := drv.NewWorker(1)
		if err := wk.Run(100, nil); err != nil {
			t.Fatal(err)
		}
		// Behind the driver's back, remove the first, a middle and the last
		// line of what Stock-Level will look at (the last 20 orders at most,
		// so the newest lines are certainly among them).
		olTable := drv.TableIDsByName()[tpcc.TableOrderLine]
		tx, err := be.Begin(false)
		if err != nil {
			t.Fatal(err)
		}
		var rids []ts.RID
		var oids []uint32
		err = tx.Scan(olTable, func(rid ts.RID, img []byte) bool {
			ol, _ := tpcc.DecodeOrderLine(img)
			rids, oids = append(rids, rid), append(oids, ol.OID)
			return true
		})
		if err != nil || len(oids) == 0 || oids[len(oids)-1] < 20 {
			t.Fatalf("scan: %v (%d order lines)", err, len(oids))
		}
		// One worker: RID order is order-id order.
		for oids[0]+20 <= oids[len(oids)-1] {
			rids, oids = rids[1:], oids[1:]
		}
		for _, rid := range []ts.RID{rids[0], rids[len(rids)/2], rids[len(rids)-1]} {
			if err := tx.Delete(olTable, rid); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := wk.StockLevel(); err != nil {
			t.Fatalf("Stock-Level over missing order lines: %v", err)
		}
	})
}
