package wire

import (
	"reflect"
	"testing"
)

// fillDistinct sets every leaf under v to a distinct non-zero value and
// gives every slice two elements, so a codec that skips, swaps or truncates
// any field — present or future — fails the comparison below.
func fillDistinct(t testing.TB, v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(*next)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		v.SetString("s" + string(rune('a'+*next%26)) + string(rune('a'+*next/26%26)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillDistinct(t, v.Index(0), next)
		fillDistinct(t, v.Index(1), next)
	default:
		t.Fatalf("fillDistinct: no case for %s — add it here and in walk", v.Type())
	}
}

func filledStats(t testing.TB) Stats {
	var s Stats
	var n int64
	fillDistinct(t, reflect.ValueOf(&s).Elem(), &n)
	return s
}

// TestStatsRoundTripEveryField is the codec's contract, by construction
// rather than by list: whatever Stats (and core.Stats under it) declares
// survives Encode → DecodeStats, and the frame is consumed to its last byte.
func TestStatsRoundTripEveryField(t *testing.T) {
	in := filledStats(t)
	if len(in.Shards) != 2 || in.Shards[1].Pressure.Evicted == 0 || in.Hash.CollisionRatio == 0 {
		t.Fatalf("fill did not reach the nested leaves: %+v", in)
	}
	var w Builder
	in.Encode(&w)
	r := NewParser(w.Take())
	out := DecodeStats(r)
	if r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("err=%v rest=%d", r.Err(), r.Rest())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("stats round trip:\n in=%+v\nout=%+v", in, out)
	}
}

// TestStatsLayoutIsFixed: the layout has no optional tail. A frame cut anywhere —
// the byte before the end included — and a frame with a byte too many both
// fail the parser instead of decoding to a shorter or longer struct.
func TestStatsLayoutIsFixed(t *testing.T) {
	in := filledStats(t)
	var w Builder
	in.Encode(&w)
	full := w.Take()
	for _, n := range []int{0, 1, len(full) / 2, len(full) - 16, len(full) - 1} {
		r := NewParser(full[:n:n])
		if DecodeStats(r); r.Err() == nil {
			t.Fatalf("frame truncated to %d of %d bytes decoded cleanly", n, len(full))
		}
	}
	r := NewParser(append(full[:len(full):len(full)], 0))
	if DecodeStats(r); r.Err() == nil {
		t.Fatal("frame with a trailing byte decoded cleanly")
	}
}

// TestStatsSliceLengthBounded: a length prefix the rest of the frame cannot
// hold is refused before the slice is allocated — 4 billion claimed shards in
// a 200-byte frame must cost nothing.
func TestStatsSliceLengthBounded(t *testing.T) {
	var w Builder
	(&Stats{}).Encode(&w)
	body := w.Take()
	// The first slice prefix (Shards) follows the embedded core.Stats.
	off := minSize(reflect.TypeOf(Stats{}.Stats))
	copy(body[off:], []byte{0xff, 0xff, 0xff, 0xff})
	allocs := testing.AllocsPerRun(10, func() {
		r := NewParser(body)
		if st := DecodeStats(r); r.Err() == nil || st.Shards != nil {
			t.Fatalf("oversized prefix accepted: %d shards, err=%v", len(st.Shards), r.Err())
		}
	})
	// One Parser per run, and the Stats value itself may escape through
	// reflection; the race detector adds allocations of its own.
	if !raceEnabled && allocs > 3 {
		t.Fatalf("refusing an oversized prefix allocated %.0f times", allocs)
	}
}

// TestStatsCodecRejectsUnknownKinds: the init-time check (minSize over
// Stats) is what turns "someone added a map to core.Stats" into a failure
// of every test in this package rather than a silently dropped field.
func TestStatsCodecRejectsUnknownKinds(t *testing.T) {
	for _, bad := range []any{
		struct{ M map[string]int }{},
		struct{ P *int }{},
		struct{ B []byte }{}, // uint8 elements: not a kind the walker carries
		struct{ hidden int }{},
		struct{ E []struct{} }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("minSize accepted %T", bad)
				}
			}()
			minSize(reflect.TypeOf(bad))
		}()
	}
}

// FuzzDecodeStats: the STATS decoder is the one reflective parser facing
// network bytes, so it must never panic on arbitrary input, and whatever it
// accepts must re-encode to the very bytes it read (the layout is fixed, so
// decoding is injective).
func FuzzDecodeStats(f *testing.F) {
	var w Builder
	(&Stats{}).Encode(&w)
	f.Add(append([]byte(nil), w.Take()...))
	full := filledStats(f)
	w.Reset()
	full.Encode(&w)
	f.Add(append([]byte(nil), w.Take()...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := NewParser(body)
		st := DecodeStats(r)
		if r.Err() != nil {
			return
		}
		var w Builder
		st.Encode(&w)
		if len(w.Take()) != len(body) {
			t.Fatalf("accepted %d bytes, re-encoded to %d", len(body), len(w.Take()))
		}
	})
}

// FuzzExecTokenSuffix: the EXEC/QOPEN request body is the statement then
// the min-LSN token, always both; any pair survives, zero token included, and
// a body missing the token is an error rather than "no token".
func FuzzExecTokenSuffix(f *testing.F) {
	f.Add("SELECT 1", uint64(0))
	f.Add("SELECT 1", uint64(777))
	f.Add("", uint64(1))
	f.Fuzz(func(t *testing.T, sqlText string, tok uint64) {
		var w Builder
		w.Str(sqlText).U64(tok)
		body := w.Take()
		r := NewParser(body)
		gotSQL, gotTok := r.Str(), r.U64()
		if r.Err() != nil || r.Rest() != 0 {
			t.Fatalf("decode: err=%v rest=%d", r.Err(), r.Rest())
		}
		if gotSQL != sqlText || gotTok != tok {
			t.Fatalf("round trip: %q %d -> %q %d", sqlText, tok, gotSQL, gotTok)
		}
		short := NewParser(body[:len(body)-8])
		short.Str()
		if short.U64(); short.Err() == nil {
			t.Fatal("token-less body parsed without error")
		}
	})
}
