package colstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var salesSchema = Schema{{"region", String}, {"amount", Int64}}

func TestSchemaValidation(t *testing.T) {
	if err := (Schema{}).Validate(); err == nil {
		t.Fatal("empty schema must fail")
	}
	if err := (Schema{{"a", 99}}).Validate(); err == nil {
		t.Fatal("unknown type must fail")
	}
	if err := salesSchema.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	row := Row{StrV("EMEA"), IntV(-42)}
	b, err := EncodeRow(salesSchema, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(salesSchema, b)
	if err != nil || !reflect.DeepEqual(got, row) {
		t.Fatalf("roundtrip = %v, %v", got, err)
	}
	if _, err := EncodeRow(salesSchema, Row{IntV(1)}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("arity mismatch = %v", err)
	}
	if _, err := EncodeRow(salesSchema, Row{IntV(1), IntV(2)}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("type mismatch = %v", err)
	}
	if _, err := DecodeRow(salesSchema, b[:3]); err == nil {
		t.Fatal("truncated row must fail")
	}
}

func TestRowCodecQuick(t *testing.T) {
	f := func(str string, n int64) bool {
		if len(str) > 4096 {
			return true
		}
		row := Row{StrV(str), IntV(n)}
		b, err := EncodeRow(salesSchema, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(salesSchema, b)
		return err == nil && reflect.DeepEqual(got, row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// goldenSchema and goldenRow cover what the layout distinguishes: a positive
// and a negative int, an empty string and one longer than a byte can count.
var (
	goldenSchema = Schema{{"a", Int64}, {"e", String}, {"n", Int64}, {"s", String}}
	goldenRow    = Row{IntV(42), StrV(""), IntV(-7), StrV(strings.Repeat("y", 300))}
)

// TestRowImageGolden pins the row image bytes. The golden file was written
// by the two encoders the tree had before they became one (they agreed);
// every WAL directory, checkpoint and replica stream holds images in this
// layout, so a diff here is a format break, not a test to update.
func TestRowImageGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/row_image.golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeRow(goldenSchema, goldenRow)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("row image moved:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeRow(goldenSchema, want)
	if err != nil || !reflect.DeepEqual(back, goldenRow) {
		t.Fatalf("golden image decodes to %v, %v", back, err)
	}
}

// FuzzDecodeRow feeds arbitrary bytes to the decoder under a fixed schema:
// it must fail or round-trip, never panic, and never allocate what a length
// prefix merely claims.
func FuzzDecodeRow(f *testing.F) {
	img, _ := EncodeRow(goldenSchema, goldenRow)
	f.Add(img)
	f.Add(img[:11])
	f.Add([]byte{})
	// An int, then a string claiming 4 GiB with nothing behind it.
	f.Add(append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, b []byte) {
		row, err := DecodeRow(goldenSchema, b)
		if err != nil {
			return
		}
		size := 0
		for _, v := range row {
			size += len(v.S)
		}
		if size > len(b) {
			t.Fatalf("decoded %d string bytes from a %d-byte image", size, len(b))
		}
		again, err := EncodeRow(goldenSchema, row)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted image does not round-trip: %x -> %v -> %x (%v)", b, row, again, err)
		}
	})
}
