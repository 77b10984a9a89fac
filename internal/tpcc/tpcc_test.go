package tpcc

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

func newLoaded(t *testing.T, cfg Config, dbCfg core.Config) *Driver {
	t.Helper()
	db, err := core.Open(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	d, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	return d
}

func smallCfg() Config {
	return Config{Warehouses: 2, Districts: 3, CustomersPerDistrict: 10, Items: 40, Seed: 42}
}

func TestCodecRoundTrips(t *testing.T) {
	w := Warehouse{ID: 3, Name: "WH", Tax: 123, YTD: 456}
	if got, err := DecodeWarehouse(w.Encode()); err != nil || got != w {
		t.Fatalf("warehouse roundtrip: %+v, %v", got, err)
	}
	c := Customer{W: 1, D: 2, ID: 3, First: "A", Middle: "OE", Last: "BARBAR",
		Credit: "BC", CreditLim: 1, Discount: 2, Balance: -3, YTDPayment: 4,
		PaymentCnt: 5, DeliveryCnt: 6, Data: "data"}
	if got, err := DecodeCustomer(c.Encode()); err != nil || got != c {
		t.Fatalf("customer roundtrip: %+v, %v", got, err)
	}
	o := Order{W: 1, D: 2, ID: 3, CID: 4, EntryD: 5, Carrier: 6, OLCnt: 7, AllLocal: true}
	if got, err := DecodeOrder(o.Encode()); err != nil || got != o {
		t.Fatalf("order roundtrip: %+v, %v", got, err)
	}
	s := Stock{W: 1, ItemID: 2, Qty: -3, Dist: "D", YTD: 4, OrderCnt: 5, RemoteCnt: 6, Data: "x"}
	if got, err := DecodeStock(s.Encode()); err != nil || got != s {
		t.Fatalf("stock roundtrip: %+v, %v", got, err)
	}
	ol := OrderLine{W: 1, D: 2, OID: 3, Number: 4, ItemID: 5, SupplyW: 6,
		DeliveryD: 7, Qty: 8, Amount: 9, DistInfo: "info"}
	if got, err := DecodeOrderLine(ol.Encode()); err != nil || got != ol {
		t.Fatalf("orderline roundtrip: %+v, %v", got, err)
	}
	no := NewOrderRow{W: 1, D: 2, OID: 3}
	if got, err := DecodeNewOrder(no.Encode()); err != nil || got != no {
		t.Fatalf("neworder roundtrip: %+v, %v", got, err)
	}
	h := History{CW: 1, CD: 2, CID: 3, W: 4, D: 5, Date: 6, Amount: 7, Data: "h"}
	if got, err := DecodeHistory(h.Encode()); err != nil || got != h {
		t.Fatalf("history roundtrip: %+v, %v", got, err)
	}
	i := Item{ID: 1, ImID: 2, Name: "N", Price: 3, Data: "d"}
	if got, err := DecodeItem(i.Encode()); err != nil || got != i {
		t.Fatalf("item roundtrip: %+v, %v", got, err)
	}
}

func TestCodecQuick(t *testing.T) {
	f := func(w, d, id, cid uint32, entry int64, carrier, cnt uint32, local bool) bool {
		o := Order{W: w, D: d, ID: id, CID: cid, EntryD: entry, Carrier: carrier,
			OLCnt: cnt, AllLocal: local}
		got, err := DecodeOrder(o.Encode())
		return err == nil && got == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b uint32, qty int32, ytd int64, s1, s2 string) bool {
		if len(s1) > 1000 || len(s2) > 1000 {
			return true
		}
		st := Stock{W: a, ItemID: b, Qty: qty, Dist: s1, YTD: ytd, Data: s2}
		got, err := DecodeStock(st.Encode())
		return err == nil && reflect.DeepEqual(got, st)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeOrder([]byte{1, 2}); err == nil {
		t.Fatal("truncated row must fail")
	}
	o := Order{}
	b := append(o.Encode(), 0xff)
	if _, err := DecodeOrder(b); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestNURand(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := newNURandC(r)
	for i := 0; i < 5000; i++ {
		if v := c.randCustomerID(r, 100); v < 1 || v > 100 {
			t.Fatalf("customer id %d out of range", v)
		}
		if v := c.randItemID(r, 50); v < 1 || v > 50 {
			t.Fatalf("item id %d out of range", v)
		}
		if v := c.randLastNameNum(r, 40); v > 39 {
			t.Fatalf("lastname num %d out of range", v)
		}
	}
	if lastName(0) != "BARBARBAR" || lastName(999) != "EINGEINGEING" {
		t.Fatalf("lastName broken: %s %s", lastName(0), lastName(999))
	}
	if lastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("lastName(371) = %s", lastName(371))
	}
}

func TestLoadCardinalities(t *testing.T) {
	cfg := smallCfg()
	d := newLoaded(t, cfg, core.Config{})
	tx := d.DB.Begin(txn.TransSI)
	defer tx.Abort()

	counts := map[string]int{}
	for name, tid := range d.TableIDsByName() {
		n := 0
		if err := tx.Scan(tid, func(_ ts.RID, _ []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		counts[name] = n
	}
	custTotal := cfg.Warehouses * cfg.Districts * cfg.CustomersPerDistrict
	want := map[string]int{
		TableWarehouse: cfg.Warehouses,
		TableDistrict:  cfg.Warehouses * cfg.Districts,
		TableCustomer:  custTotal,
		TableHistory:   custTotal,
		TableItem:      cfg.Items,
		TableStock:     cfg.Warehouses * cfg.Items,
		TableOrders:    0,
		TableOrderLine: 0,
		TableNewOrder:  0,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("cardinalities = %v, want %v", counts, want)
	}

	// RID formulas resolve to the right rows.
	s, err := getDecoded(tx, d.t.stock, d.stockRID(2, 7), DecodeStock)
	if err != nil || s.W != 2 || s.ItemID != 7 {
		t.Fatalf("stock RID formula: %+v, %v", s, err)
	}
	c, err := getDecoded(tx, d.t.customer, d.customerRID(2, 3, 5), DecodeCustomer)
	if err != nil || c.W != 2 || c.D != 3 || c.ID != 5 {
		t.Fatalf("customer RID formula: %+v, %v", c, err)
	}
	dr, err := getDecoded(tx, d.t.district, d.districtRID(1, 2), DecodeDistrict)
	if err != nil || dr.W != 1 || dr.ID != 2 || dr.NextOID != 1 {
		t.Fatalf("district RID formula: %+v, %v", dr, err)
	}
}

func TestConsistencyAfterLoad(t *testing.T) {
	d := newLoaded(t, smallCfg(), core.Config{})
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleWorkerMixConsistent(t *testing.T) {
	d := newLoaded(t, smallCfg(), core.Config{})
	wk := d.NewWorker(1)
	if err := wk.Run(400, nil); err != nil {
		t.Fatal(err)
	}
	if wk.Stats.TotalCommitted() == 0 {
		t.Fatal("nothing committed")
	}
	if wk.Stats.Committed[TxnNewOrder].Load() == 0 ||
		wk.Stats.Committed[TxnPayment].Load() == 0 ||
		wk.Stats.Committed[TxnDelivery].Load() == 0 {
		t.Fatalf("mix not exercised: %+v", statLine(&wk.Stats))
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderRollbackRate(t *testing.T) {
	d := newLoaded(t, smallCfg(), core.Config{})
	wk := d.NewWorker(1)
	for i := 0; i < 600; i++ {
		if err := wk.RunOne(); err != nil {
			t.Fatal(err)
		}
	}
	if wk.Stats.Aborted[TxnNewOrder].Load() == 0 {
		t.Fatal("the 1% New-Order rollback never fired in 600 transactions")
	}
	// Rollbacks must leave the database consistent.
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllWarehousesConcurrentWithGC(t *testing.T) {
	cfg := smallCfg()
	cfg.Warehouses = 4
	d := newLoaded(t, cfg, core.Config{
		GC:                 gc.Periods{GT: time.Millisecond, TG: 3 * time.Millisecond, SI: 5 * time.Millisecond},
		LongLivedThreshold: 2 * time.Millisecond,
		AutoGC:             true,
	})
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Warehouses)
	for w := 1; w <= cfg.Warehouses; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := d.NewWorker(w).Run(250, nil); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	// GC must have reclaimed the bulk of the version stream.
	st := d.DB.Stats()
	if st.VersionsReclaimed == 0 {
		t.Fatal("GC reclaimed nothing during the run")
	}
}

func TestWorkloadWithLongCursorStaysConsistent(t *testing.T) {
	cfg := smallCfg()
	d := newLoaded(t, cfg, core.Config{
		GC:                 gc.Periods{GT: time.Millisecond, TG: 2 * time.Millisecond, SI: 4 * time.Millisecond},
		LongLivedThreshold: time.Millisecond,
		AutoGC:             true,
	})
	cur, err := d.DB.OpenCursor(d.StockTableID())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	before, _, err := cur.Fetch(5)
	if err != nil {
		t.Fatal(err)
	}

	wk := d.NewWorker(1)
	if err := wk.Run(300, nil); err != nil {
		t.Fatal(err)
	}
	// The cursor's view is still the load-time stock.
	after, _, err := cur.Fetch(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range append(before, after...) {
		s, err := DecodeStock(img)
		if err != nil {
			t.Fatal(err)
		}
		if s.YTD != 0 || s.OrderCnt != 0 {
			t.Fatalf("cursor leaked post-load stock state: %+v", s)
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func statLine(s *WorkerStats) map[string]int64 {
	out := map[string]int64{}
	for t := TxnType(0); t < numTxnTypes; t++ {
		out[t.String()] = s.Committed[t].Load()
	}
	return out
}

func TestAttachAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	open := func() *core.DB {
		db, err := core.Open(core.Config{
			Persistence: &core.Persistence{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	d, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	if err := d.NewWorker(1).Run(200, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More work after the checkpoint so recovery replays log records too.
	if err := d.NewWorker(2).Run(100, nil); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := open()
	defer db2.Close()
	d2, err := Attach(db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt state must satisfy every consistency condition...
	if err := d2.Check(); err != nil {
		t.Fatal(err)
	}
	// ...and support continued execution of the full mix.
	if err := d2.NewWorker(1).Run(150, nil); err != nil {
		t.Fatal(err)
	}
	if err := d2.Check(); err != nil {
		t.Fatal(err)
	}
}
