package colstore

import (
	"errors"
	"fmt"
	"testing"

	"hybridgc/internal/ts"
)

func tsRID(i int) ts.RID { return ts.RID(i) }

var chunkSchema = Schema{{"id", Int64}, {"city", String}}

// TestChunkDictDuplicatesAcrossChunks checks that dictionaries are strictly
// per-chunk: the same value repeated in two chunks gets one entry in each,
// and each chunk decodes it back independently.
func TestChunkDictDuplicatesAcrossChunks(t *testing.T) {
	build := func(base int) *Chunk {
		b, err := NewChunkBuilder(chunkSchema, tsRID(base), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			// Two distinct values, both repeated — and both also present in
			// the other chunk.
			city := "lyon"
			if i%2 == 1 {
				city = "oslo"
			}
			if err := b.Set(tsRID(base+i), Row{IntV(int64(base + i)), StrV(city)}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Seal(7)
	}
	c1, c2 := build(1), build(5)
	for _, c := range []*Chunk{c1, c2} {
		if got := c.DictSize(1); got != 2 {
			t.Fatalf("DictSize = %d, want 2 (duplicates must share an entry per chunk)", got)
		}
	}
	// The shared values decode identically from either chunk's own dictionary.
	for slot := 0; slot < 4; slot++ {
		v1, v2 := c1.ValueAt(1, slot), c2.ValueAt(1, slot)
		if v1.S != v2.S {
			t.Fatalf("slot %d: chunk1=%q chunk2=%q", slot, v1.S, v2.S)
		}
	}
	// Dictionaries are independent objects: growing a later chunk's dict
	// never touches a sealed one.
	if &c1.strs[1].dict[0] == &c2.strs[1].dict[0] {
		t.Fatal("chunks share dictionary storage")
	}
}

// TestChunkDictEmptyStrings checks the empty string is an ordinary
// dictionary value, distinct from other values and from absent slots.
func TestChunkDictEmptyStrings(t *testing.T) {
	b, err := NewChunkBuilder(chunkSchema, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{IntV(1), StrV("")},
		{IntV(2), StrV("x")},
		{IntV(3), StrV("")},
		// slot 3 left absent
	}
	for i, r := range rows {
		if err := b.Set(tsRID(1+i), r); err != nil {
			t.Fatal(err)
		}
	}
	c := b.Seal(9)
	if got := c.DictSize(1); got != 2 {
		t.Fatalf("DictSize = %d, want 2 (empty string is one entry)", got)
	}
	if v := c.ValueAt(1, 0); v.S != "" {
		t.Fatalf("slot 0 = %q, want empty string", v.S)
	}
	if v := c.ValueAt(1, 2); v.S != "" {
		t.Fatalf("slot 2 = %q, want empty string", v.S)
	}
	if v := c.ValueAt(1, 1); v.S != "x" {
		t.Fatalf("slot 1 = %q, want \"x\"", v.S)
	}
	if c.Present(3) {
		t.Fatal("absent slot reported present")
	}
	if c.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", c.Rows())
	}
}

// TestChunkDictSizeBound checks an unbounded dictionary fails loudly: the
// Set that would exceed the bound returns ErrDictOverflow and leaves the
// builder usable with already-known values.
func TestChunkDictSizeBound(t *testing.T) {
	const bound = 8
	b, err := NewChunkBuilder(chunkSchema, 1, bound+2, bound)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bound; i++ {
		if err := b.Set(tsRID(1+i), Row{IntV(int64(i)), StrV(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	err = b.Set(tsRID(1+bound), Row{IntV(99), StrV("one-too-many")})
	if !errors.Is(err, ErrDictOverflow) {
		t.Fatalf("overflow Set returned %v, want ErrDictOverflow", err)
	}
	// A known value still fits after the rejected insert.
	if err := b.Set(tsRID(1+bound), Row{IntV(99), StrV("v0")}); err != nil {
		t.Fatalf("known value rejected after overflow: %v", err)
	}
	c := b.Seal(3)
	if got := c.DictSize(1); got != bound {
		t.Fatalf("DictSize = %d, want %d (overflow must not grow the dict)", got, bound)
	}
	if c.Rows() != bound+1 {
		t.Fatalf("Rows = %d, want %d", c.Rows(), bound+1)
	}
}

// TestSchemaSpecRoundTrip pins the spec form the WAL lane record carries.
func TestSchemaSpecRoundTrip(t *testing.T) {
	spec := chunkSchema.Spec()
	if spec != "id:int,city:str" {
		t.Fatalf("Spec = %q", spec)
	}
	got, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec() != spec {
		t.Fatalf("round trip = %q, want %q", got.Spec(), spec)
	}
	if _, err := ParseSpec("id:float"); err == nil {
		t.Fatal("bad type accepted")
	}
	if _, err := ParseSpec(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}
