package table

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestImageNeverTorn has one writer alternate a record's image between two
// images that differ in length and content while four readers check that
// every Image they get is exactly one of the two. It is the test that must
// fail if Image uses the length it loaded without re-checking the sequence
// word after loading the data pointer: a reader then pairs one image's
// pointer with the other's length, which reads the wrong bytes or, under
// -race (checkptr), is an unsafe.Slice that straddles allocations.
func TestImageNeverTorn(t *testing.T) {
	short, long := bytes.Repeat([]byte{'a'}, 7), bytes.Repeat([]byte{'b'}, 300)
	tbl, _ := NewCatalog().Create("T")
	r, err := tbl.CreateRecord(tbl.AllocRID())
	if err != nil {
		t.Fatal(err)
	}
	r.InstallImage(short)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if img := r.Image(); !bytes.Equal(img, short) && !bytes.Equal(img, long) {
					t.Errorf("torn image: %d bytes %q…", len(img), img[:min(len(img), 8)])
					return
				}
			}
		}()
	}
	for deadline := time.Now().Add(250 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			r.InstallImage(long)
			r.InstallImage(short)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestImageNilAndEmpty checks that no image (never installed, installed as
// nil, or dropped) stays distinct from an installed empty one, and that an
// image's capacity is its length, so appending to it never writes into the
// bytes the record points at.
func TestImageNilAndEmpty(t *testing.T) {
	tbl, _ := NewCatalog().Create("T")
	r, err := tbl.CreateRecord(tbl.AllocRID())
	if err != nil {
		t.Fatal(err)
	}
	if r.Image() != nil {
		t.Fatal("a fresh record must have no image")
	}
	r.InstallImage([]byte{})
	if img := r.Image(); img == nil || len(img) != 0 {
		t.Fatalf("an installed empty image read back as %#v", img)
	}
	r.InstallImage(nil)
	if r.Image() != nil {
		t.Fatal("installing nil must leave no image")
	}
	buf := []byte("image+spare")
	r.InstallImage(buf[:5])
	if img := r.Image(); string(img) != "image" || cap(img) != len(img) {
		t.Fatalf("Image = %q, cap %d", img, cap(img))
	}
	r.DropRecord()
	if r.Image() != nil {
		t.Fatal("a dropped record must have no image")
	}
}

// TestRecordLayout pins the sizes the page geometry rests on: a 32-byte
// record, and a page inside Go's 18 KiB size class.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 32 {
		t.Fatalf("Record is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(page{}); n > 18432 {
		t.Fatalf("page is %d bytes, more than the 18 KiB size class", n)
	}
}

// TestTableCountersOffTheReadLine pins the padding of Table: what every
// insert and drop writes sits at least a cache line past the fields every
// lookup reads, so those writes never invalidate the line the lookups load.
func TestTableCountersOffTheReadLine(t *testing.T) {
	var tbl Table
	readEnd := max(
		unsafe.Offsetof(tbl.ID)+unsafe.Sizeof(tbl.ID),
		unsafe.Offsetof(tbl.Name)+unsafe.Sizeof(tbl.Name),
		unsafe.Offsetof(tbl.dir)+unsafe.Sizeof(tbl.dir),
		unsafe.Offsetof(tbl.partitions)+unsafe.Sizeof(tbl.partitions),
		unsafe.Offsetof(tbl.writeObs)+unsafe.Sizeof(tbl.writeObs),
	)
	for name, off := range map[string]uintptr{
		"dirMu":   unsafe.Offsetof(tbl.dirMu),
		"nextRID": unsafe.Offsetof(tbl.nextRID),
		"live":    unsafe.Offsetof(tbl.live),
	} {
		if off < readEnd+64 {
			t.Errorf("Table.%s at offset %d, within a cache line of the read-mostly fields ending at %d", name, off, readEnd)
		}
	}
}

// TestBytesPerRow measures the heap a table space adds per row beyond the
// images themselves: the page share (36 B) and the directory, and nothing
// per image.
func TestBytesPerRow(t *testing.T) {
	const rows = 64 << 10
	img := make([]byte, 16)
	tbl, _ := NewCatalog().Create("T")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		r, err := tbl.CreateRecord(tbl.AllocRID())
		if err != nil {
			t.Fatal(err)
		}
		r.InstallImage(img)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tbl)
	per := float64(after.HeapAlloc-before.HeapAlloc) / rows
	if per > 40 {
		t.Fatalf("%.1f B of heap per row beyond its image, want ≤ 40", per)
	}
	t.Logf("%.1f B of heap per row beyond its image", per)
}

var sinkImageBytes atomic.Int64

// BenchmarkRecordImage reads the images of benchTable's 20 000 unversioned
// rows from parallel readers while one goroutine keeps re-installing them,
// as the collector migrates images under readers. allocs/op counts the
// re-installs' allocations too.
func BenchmarkRecordImage(b *testing.B) {
	_, tbl := benchTable(b)
	n := uint64(tbl.MaxRID())
	recs := make([]*Record, 0, n)
	tbl.ForEach(func(r *Record) bool { recs = append(recs, r); return true })
	imgs := [2][]byte{[]byte("row"), []byte("row image")}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); !stop.Load(); i++ {
			recs[i%n].InstallImage(imgs[i&1])
		}
	}()
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(0x9e3779b97f4a7c15)
		read := 0
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			read += len(recs[x>>33%n].Image())
		}
		sinkImageBytes.Add(int64(read))
	})
	b.StopTimer()
	stop.Store(true)
	<-done
}
