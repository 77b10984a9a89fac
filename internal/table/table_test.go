package table

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
)

// Compile-time check: *Record satisfies the version space's record handle.
var _ mvcc.RecordRef = (*Record)(nil)

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	a, err := c.Create("STOCK")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create("ORDERS")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || a.ID == 0 {
		t.Fatalf("table IDs must be distinct and nonzero: %d %d", a.ID, b.ID)
	}
	if _, err := c.Create("STOCK"); err == nil {
		t.Fatal("duplicate table name must fail")
	}
	if c.ByName("STOCK") != a || c.ByID(b.ID) != b {
		t.Fatal("lookups broken")
	}
	tables := c.Tables()
	if len(tables) != 2 || tables[0] != a || tables[1] != b {
		t.Fatalf("Tables() = %v", tables)
	}
	if c.ByName("NOPE") != nil || c.ByID(99) != nil {
		t.Fatal("missing lookups must return nil")
	}
}

func TestRecordLifecycle(t *testing.T) {
	c := NewCatalog()
	tbl, _ := c.Create("T")
	rid := tbl.AllocRID()
	if rid != 1 {
		t.Fatalf("first RID = %d", rid)
	}
	r, err := tbl.CreateRecord(rid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateRecord(rid); err == nil {
		t.Fatal("duplicate RID must fail")
	}
	if r.Image() != nil {
		t.Fatal("fresh record must have no image (insert unmigrated)")
	}
	if r.Versioned() {
		t.Fatal("fresh record must be unversioned")
	}
	r.SetVersioned(true)
	r.InstallImage([]byte("img"))
	if string(r.Image()) != "img" || !r.Versioned() {
		t.Fatal("image/flag not installed")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	r.DropRecord()
	if !r.Dropped() || tbl.Get(rid) != nil || tbl.Len() != 0 {
		t.Fatal("drop must remove the record")
	}
	// Dropping again is harmless.
	r.DropRecord()
}

func TestForEachOrder(t *testing.T) {
	c := NewCatalog()
	tbl, _ := c.Create("T")
	for i := 0; i < 5; i++ {
		if _, err := tbl.CreateRecord(tbl.AllocRID()); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Get(3).DropRecord()
	var rids []ts.RID
	tbl.ForEach(func(r *Record) bool {
		rids = append(rids, r.Key().RID)
		return true
	})
	want := []ts.RID{1, 2, 4, 5}
	if len(rids) != len(want) {
		t.Fatalf("visited %v", rids)
	}
	for i := range want {
		if rids[i] != want[i] {
			t.Fatalf("visited %v, want %v", rids, want)
		}
	}
	// Early stop.
	n := 0
	tbl.ForEach(func(*Record) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// linkedPages returns the number of pages the directory currently links.
func (t *Table) linkedPages() int {
	n := 0
	dir := *t.dir.Load()
	for i := range dir {
		if p := dir[i].Load(); p != nil && p != retired {
			n++
		}
	}
	return n
}

// TestSlotStateMachine walks one slot through empty → present → dropped and
// checks that neither later state can be created over, inside a linked page
// and inside a retired one.
func TestSlotStateMachine(t *testing.T) {
	tbl, _ := NewCatalog().Create("T")
	if tbl.Get(0) != nil || tbl.Get(1) != nil || tbl.Get(1<<40) != nil {
		t.Fatal("an empty table must find nothing")
	}
	if _, err := tbl.CreateRecord(0); err == nil {
		t.Fatal("RID 0 must be rejected")
	}
	if _, err := tbl.CreateRecord(maxRID + 1); err == nil {
		t.Fatal("a RID past maxRID must be rejected")
	}
	r, err := tbl.CreateRecord(tbl.AllocRID())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Key(); got != (ts.RecordKey{Table: tbl.ID, RID: 1}) || r.RID() != 1 {
		t.Fatalf("Key = %+v", got)
	}
	if _, err := tbl.CreateRecord(1); err == nil {
		t.Fatal("CreateRecord on a present slot must fail")
	}
	r.DropRecord()
	if _, err := tbl.CreateRecord(1); err == nil {
		t.Fatal("CreateRecord on a dropped slot must fail")
	}
	// Fill and drop the rest of page 0: it retires, and its RIDs stay dead.
	for rid := ts.RID(2); rid <= pageSize; rid++ {
		rec, err := tbl.CreateRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		rec.DropRecord()
	}
	if n := tbl.linkedPages(); n != 0 {
		t.Fatalf("LinkedPages = %d after the only page died", n)
	}
	if _, err := tbl.CreateRecord(7); err == nil {
		t.Fatal("CreateRecord in a retired page must fail")
	}
	if tbl.Get(7) != nil || tbl.Len() != 0 {
		t.Fatal("a retired page must find nothing")
	}
	// A handle taken before retirement stays usable.
	r.SetVersioned(false)
	r.InstallImage([]byte("late"))
	if !r.Dropped() {
		t.Fatal("stale handle lost its state")
	}
}

// TestExplicitRIDGrowsDirectory creates records the way recovery and replica
// apply do: under RIDs the log names, in log order, far past MaxRID.
func TestExplicitRIDGrowsDirectory(t *testing.T) {
	tbl, _ := NewCatalog().Create("T")
	rids := []ts.RID{100*pageSize + 3, 2, 40 * pageSize, pageSize + 1}
	for _, rid := range rids {
		r, err := tbl.CreateRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		r.InstallImage([]byte{byte(rid)})
		tbl.EnsureNextRID(rid)
	}
	if tbl.MaxRID() != rids[0] || tbl.Len() != len(rids) {
		t.Fatalf("MaxRID = %d, Len = %d", tbl.MaxRID(), tbl.Len())
	}
	if n := tbl.linkedPages(); n != len(rids) {
		t.Fatalf("LinkedPages = %d, want one per sparse record", n)
	}
	for _, rid := range rids {
		if r := tbl.Get(rid); r == nil || r.RID() != rid || r.Image()[0] != byte(rid) {
			t.Fatalf("Get(%d) = %v", rid, r)
		}
	}
	var seen []ts.RID
	tbl.ForEach(func(r *Record) bool { seen = append(seen, r.RID()); return true })
	if fmt.Sprint(seen) != fmt.Sprint([]ts.RID{2, pageSize + 1, 40 * pageSize, 100*pageSize + 3}) {
		t.Fatalf("ForEach visited %v", seen)
	}
	// Range honours both bounds and reports an early stop.
	seen = seen[:0]
	if !tbl.Range(3, 40*pageSize, func(r *Record) bool { seen = append(seen, r.RID()); return true }) {
		t.Fatal("a full walk must report completion")
	}
	if fmt.Sprint(seen) != fmt.Sprint([]ts.RID{pageSize + 1, 40 * pageSize}) {
		t.Fatalf("Range visited %v", seen)
	}
	if tbl.Range(0, tbl.MaxRID(), func(*Record) bool { return false }) {
		t.Fatal("a stopped walk must not report completion")
	}
}

// TestChurnRetiresPages is NEW-ORDER's shape: rows are inserted at the head
// of the RID range and deleted from its tail, so the live set stays small
// while the RIDs ever allocated grow without bound. The linked pages must
// follow the live set.
func TestChurnRetiresPages(t *testing.T) {
	const (
		window = 3 * pageSize / 2 // live rows, as undelivered orders
		total  = 120 * pageSize
	)
	tbl, _ := NewCatalog().Create("NEW_ORDER")
	recs := make([]*Record, total+1) // ground truth by RID; nil once dropped
	live := 0
	oldest := ts.RID(1)
	maxLinked := 0
	for i := 0; i < total; i++ {
		rid := tbl.AllocRID()
		r, err := tbl.CreateRecord(rid)
		if err != nil {
			t.Fatal(err)
		}
		recs[rid] = r
		if live++; live > window {
			recs[oldest].DropRecord()
			recs[oldest] = nil
			live--
			if tbl.Get(oldest) != nil {
				t.Fatalf("dropped RID %d still found", oldest)
			}
			if _, err := tbl.CreateRecord(oldest); err == nil {
				t.Fatalf("dropped RID %d created again", oldest)
			}
			oldest++
		}
		if tbl.Len() != live {
			t.Fatalf("Len = %d with %d live", tbl.Len(), live)
		}
		maxLinked = max(maxLinked, tbl.linkedPages())
	}
	// window rows span at most window/pageSize + 2 pages.
	if bound := window/pageSize + 2; maxLinked > bound {
		t.Fatalf("linked pages peaked at %d for %d live rows (bound %d) over %d pages of RIDs",
			maxLinked, window, bound, total/pageSize)
	}
	n := 0
	tbl.ForEach(func(r *Record) bool {
		if recs[r.RID()] != r {
			t.Fatalf("ForEach returned RID %d, which is not live", r.RID())
		}
		n++
		return true
	})
	if n != live {
		t.Fatalf("ForEach visited %d of %d live rows", n, live)
	}
	for rid := ts.RID(1); rid <= tbl.MaxRID(); rid++ {
		if got := tbl.Get(rid); got != recs[rid] {
			t.Fatalf("Get(%d) = %p, want %p", rid, got, recs[rid])
		}
	}
}

// TestConcurrentTableSpace races every mutator and reader of the table
// space across page boundaries and directory growth. Each writer owns the
// RIDs it allocates, so it knows what Get must return for them; readers
// check what must hold for any record they are handed.
func TestConcurrentTableSpace(t *testing.T) {
	const (
		writers = 4
		perW    = 6 * pageSize
	)
	tbl, _ := NewCatalog().Create("T")
	var notified atomic.Int64
	tbl.SetWriteObserver(func(ts.RID) { notified.Add(1) })
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := ts.RID(0)
				tbl.ForEach(func(r *Record) bool {
					if r.RID() <= last || r.Key().Table != tbl.ID {
						t.Errorf("ForEach out of order or foreign: %d after %d", r.RID(), last)
						return false
					}
					last = r.RID()
					if img := r.Image(); img != nil && ts.RID(binary.LittleEndian.Uint64(img)) != r.RID() {
						t.Errorf("RID %d carries the image of another record", r.RID())
						return false
					}
					return true
				})
				for rid := tbl.MaxRID(); rid > 0 && rid+64 > tbl.MaxRID(); rid-- {
					if r := tbl.Get(rid); r != nil && r.RID() != rid {
						t.Errorf("Get(%d) returned RID %d", rid, r.RID())
					}
				}
			}
		}()
	}
	var kept atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				rid := tbl.AllocRID()
				r, err := tbl.CreateRecord(rid)
				if err != nil {
					t.Error(err)
					return
				}
				if tbl.Get(rid) != r {
					t.Errorf("Get(%d) did not return the record just created", rid)
				}
				r.SetVersioned(true)
				r.InstallImage(binary.LittleEndian.AppendUint64(nil, uint64(rid)))
				r.SetVersioned(false)
				if (i+w)%8 == 0 {
					kept.Add(1)
					continue
				}
				r.DropRecord()
				if tbl.Get(rid) != nil || !r.Dropped() {
					t.Errorf("Get(%d) found a dropped record", rid)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if int64(tbl.Len()) != kept.Load() {
		t.Fatalf("Len = %d, want %d", tbl.Len(), kept.Load())
	}
	if tbl.MaxRID() != writers*perW {
		t.Fatalf("MaxRID = %d", tbl.MaxRID())
	}
	n := int64(0)
	tbl.ForEach(func(*Record) bool { n++; return true })
	if n != kept.Load() {
		t.Fatalf("ForEach visited %d of %d kept rows", n, kept.Load())
	}
	if notified.Load() == 0 {
		t.Fatal("the write observer never fired")
	}
}

// TestConcurrentPageRetirement drops every record of many pages from
// several goroutines at once, so the last drops of a page race each other
// and the page's creation: each page must retire exactly when it dies.
func TestConcurrentPageRetirement(t *testing.T) {
	const pages = 32
	tbl, _ := NewCatalog().Create("T")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pages*pageSize/4; i++ {
				r, err := tbl.CreateRecord(tbl.AllocRID())
				if err != nil {
					t.Error(err)
					return
				}
				// Hand half of the drops to whoever finds the record first.
				if i%2 == 0 {
					r.DropRecord()
				} else if got := tbl.Get(r.RID()); got != nil {
					wg.Add(1)
					go func() { defer wg.Done(); got.DropRecord() }()
					r.DropRecord()
				}
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if n := tbl.linkedPages(); n != 0 {
		t.Fatalf("%d of %d dead pages still linked", n, pages)
	}
}

// TestCatalogConcurrentLookup reads the catalog while DDL republishes it.
func TestCatalogConcurrentLookup(t *testing.T) {
	c := NewCatalog()
	first, _ := c.Create("T0")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 200; i++ {
			if _, err := c.Create(fmt.Sprintf("T%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		if c.ByID(first.ID) != first || c.ByName("T0") != first {
			t.Fatal("a registered table went missing during DDL")
		}
		for _, tbl := range c.Tables() {
			if c.ByID(tbl.ID) != tbl {
				t.Fatalf("Tables() and ByID disagree on %d", tbl.ID)
			}
		}
		select {
		case <-done:
			if n := len(c.Tables()); n != 200 {
				t.Fatalf("%d tables", n)
			}
			return
		default:
		}
	}
}

func TestCatalogRestore(t *testing.T) {
	c := NewCatalog()
	b, err := c.Restore(5, "B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore(5, "C"); err == nil {
		t.Fatal("duplicate ID must fail")
	}
	if _, err := c.Restore(6, "B"); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := c.Restore(0, "Z"); err == nil {
		t.Fatal("ID 0 must fail")
	}
	a, _ := c.Restore(2, "A")
	n, _ := c.Create("N")
	if n.ID != 6 {
		t.Fatalf("Create after Restore(5) allocated ID %d", n.ID)
	}
	if got := c.Tables(); len(got) != 3 || got[0] != a || got[1] != b || got[2] != n {
		t.Fatalf("Tables() = %v", got)
	}
	if c.ByID(3) != nil || c.ByID(7) != nil {
		t.Fatal("gaps must be nil")
	}
}

// TestLookupsAllocFree pins the two per-statement lookups, the image read
// and the three writes the collector makes to a record at zero allocations.
func TestLookupsAllocFree(t *testing.T) {
	c := NewCatalog()
	tbl, _ := c.Create("T")
	img := []byte("img")
	for i := 0; i < 3*pageSize; i++ {
		r, err := tbl.CreateRecord(tbl.AllocRID())
		if err != nil {
			t.Fatal(err)
		}
		r.InstallImage(img)
	}
	rid := ts.RID(0)
	next := func() *Record {
		rid = rid%(3*pageSize) + 1
		return tbl.Get(rid)
	}
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"ByID + Get", func() {
			if c.ByID(tbl.ID) != tbl || next() == nil {
				t.Fatal("lookup failed")
			}
		}},
		{"InstallImage", func() { next().InstallImage(img) }},
		{"SetVersioned", func() { next().SetVersioned(rid%2 == 0) }},
		{"Image", func() {
			if next().Image() == nil {
				t.Fatal("image lost")
			}
		}},
		// Each run drops another record, across page retirements.
		{"DropRecord", func() { next().DropRecord() }},
	} {
		if n := testing.AllocsPerRun(1000, op.fn); n != 0 {
			t.Fatalf("%s allocated %.1f objects/op, want 0", op.name, n)
		}
	}
}

// benchTable returns a catalog of nine tables (TPC-C's count) and one of
// them loaded with STOCK's 20 000 rows at the benchmark's scale.
func benchTable(b *testing.B) (*Catalog, *Table) {
	c := NewCatalog()
	var tbl *Table
	for i := 0; i < 9; i++ {
		tbl, _ = c.Create(fmt.Sprintf("T%d", i))
	}
	for i := 0; i < 20000; i++ {
		r, err := tbl.CreateRecord(tbl.AllocRID())
		if err != nil {
			b.Fatal(err)
		}
		r.InstallImage([]byte("row"))
	}
	return c, tbl
}

var sinkRecord *Record

func BenchmarkTableGetSerial(b *testing.B) {
	_, tbl := benchTable(b)
	n := uint64(tbl.MaxRID())
	b.ReportAllocs()
	b.ResetTimer()
	x := uint64(1)
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sinkRecord = tbl.Get(ts.RID(x>>33%n + 1))
	}
}

func BenchmarkTableGetParallel(b *testing.B) {
	_, tbl := benchTable(b)
	n := uint64(tbl.MaxRID())
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(0x9e3779b97f4a7c15)
		r := tbl.Get(1)
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			r = tbl.Get(ts.RID(x>>33%n + 1))
		}
		if r == nil {
			b.Error("lookup failed")
		}
	})
}

func BenchmarkCatalogByID(b *testing.B) {
	c, tbl := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		got := c.ByID(tbl.ID)
		for pb.Next() {
			got = c.ByID(tbl.ID)
		}
		if got != tbl {
			b.Error("lookup failed")
		}
	})
}
