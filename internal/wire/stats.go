package wire

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/htap"
)

// Stats is the STATS verb's payload: the engine's own snapshot, whole, plus
// what only the serving node knows. The struct is the schema — the frame is
// its fields in declaration order (see walk), so adding an indicator is
// adding a field, here or in core.Stats, and bumping Version.
type Stats struct {
	// Stats is the engine view (the Figure 2 set, hash, commit and pressure
	// state): core.MergeStats over Shards on a sharded engine, the one
	// shard's own reading otherwise. Its fields are promoted, so
	// st.VersionsLive is the cluster-wide count.
	core.Stats
	// Shards is the per-shard breakdown the aggregate above was merged from
	// (empty on a single-node server, where the aggregate is the shard).
	Shards []core.Stats

	// Service layer.
	Conns         int64
	ConnsTotal    int64
	Requests      int64
	RequestErrors int64
	BytesIn       int64
	BytesOut      int64
	CursorsOpen   int64
	CursorsReaped int64
	LatMean       time.Duration
	LatP50        time.Duration
	LatP95        time.Duration
	LatP99        time.Duration

	// Replication. Role is "" when replication is not configured, "primary"
	// on a stream source, "replica" on an applier.
	ReplRole string
	// ReplUpstream is the primary's address (replica side).
	ReplUpstream string
	// ReplAppliedLSN is the next LSN the applier expects (replica side).
	ReplAppliedLSN uint64
	// ReplPrimaryLSN is the stream head: the primary's next append LSN
	// (primary side), or the last heartbeat value seen (replica side).
	ReplPrimaryLSN uint64
	// ReplRecordsSent / ReplRecordsApplied count stream records by role.
	ReplRecordsSent    int64
	ReplRecordsApplied int64
	// ReplReconnects counts replica-side stream re-establishments.
	ReplReconnects int64
	// ReplDemotions counts replicas demoted for exceeding the lag bound.
	ReplDemotions int64
	// Replicas is the primary's per-replica view.
	Replicas []ReplicaStat

	// HTAP is the per-table column-lane breakdown, each table summed across
	// shards by the lane manager (empty when no lanes are enabled).
	HTAP []htap.TableStats

	// Read-gate counters, on a replica that gates reads on session
	// consistency tokens: how many requests were admitted only after waiting
	// for the applier, and how many were bounced with ErrReplicaBehind
	// because the wait deadline passed.
	ReadGateWaits   int64
	ReadGateBounces int64
}

// ReplicaStat is one replica's state as the primary tracks it.
type ReplicaStat struct {
	ID         string
	Connected  bool
	Demoted    bool
	AppliedLSN uint64
	// FloorSegment is the lowest log segment retained for this replica.
	FloorSegment uint64
	// SegmentLag is the primary's active segment minus FloorSegment.
	SegmentLag int64
	// LastReportAge is the time since the replica's last report.
	LastReportAge time.Duration
}

// Encode appends the stats payload.
func (s *Stats) Encode(w *Builder) { walk(reflect.ValueOf(s).Elem(), w, nil) }

// DecodeStats reads a stats payload; bytes past the last field are a layout
// mismatch and fail the parser like a short frame does.
func DecodeStats(r *Parser) Stats {
	var s Stats
	walk(reflect.ValueOf(&s).Elem(), nil, r)
	if r.Rest() != 0 {
		r.fail = true
	}
	return s
}

// A Stats field of a kind the walker cannot carry stops the program at start,
// not at the first STATS request.
func init() { minSize(reflect.TypeOf(Stats{})) }

// walk is the STATS codec: it visits v's leaves in declaration order and
// either appends each to w or, when w is nil, fills it from r. Signed
// integers (durations included) and unsigned ones travel as 8 big-endian
// bytes, floats as their IEEE bits, bools as a byte, strings and slices
// behind a u32 length, structs as their fields back to back.
func walk(v reflect.Value, w *Builder, r *Parser) {
	enc := w != nil
	switch v.Kind() {
	case reflect.Bool:
		if enc {
			w.Bool(v.Bool())
		} else {
			v.SetBool(r.Bool())
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		if enc {
			w.I64(v.Int())
		} else {
			v.SetInt(r.I64())
		}
	case reflect.Uint32, reflect.Uint64:
		if enc {
			w.U64(v.Uint())
		} else {
			v.SetUint(r.U64())
		}
	case reflect.Float64:
		if enc {
			w.U64(math.Float64bits(v.Float()))
		} else {
			v.SetFloat(math.Float64frombits(r.U64()))
		}
	case reflect.String:
		if enc {
			w.Str(v.String())
		} else {
			v.SetString(r.Str())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walk(v.Field(i), w, r)
		}
	case reflect.Slice:
		n := v.Len()
		if enc {
			w.U32(uint32(n))
		} else {
			// A count the rest of the frame cannot hold is refused before
			// anything is allocated for it.
			if n = int(r.U32()); n > r.Rest()/minSize(v.Type().Elem()) {
				r.fail = true
				return
			}
			if n > 0 {
				v.Set(reflect.MakeSlice(v.Type(), n, n))
			}
		}
		for i := 0; i < n; i++ {
			walk(v.Index(i), w, r)
		}
	}
}

// minSize is the fewest bytes walk writes for a value of type t; it panics
// on a type walk has no case for (and on unexported fields, which reflection
// cannot set, and on slices of nothing, which have no length bound).
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint32, reflect.Uint64, reflect.Float64:
		return 8
	case reflect.String:
		return 4
	case reflect.Slice:
		if minSize(t.Elem()) > 0 {
			return 4
		}
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				n += minSize(f.Type)
			} else {
				panic(fmt.Sprintf("wire: stats field %s.%s is unexported", t, f.Name))
			}
		}
		return n
	}
	panic(fmt.Sprintf("wire: stats codec cannot carry %s", t))
}
