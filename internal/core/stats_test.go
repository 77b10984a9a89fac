package core

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hybridgc/internal/txn"
)

// mergeRule names the leaves of Stats that MergeStats does not sum. Anything
// not named here — a field added next year included — must come out as the
// sum of the shards (or the OR, for a bool), so a field MergeStats forgets
// fails TestMergeStatsEveryField instead of reading as shard 0's value.
var mergeRule = map[string]string{
	"CurrentCID":           "max",
	"ActiveCIDRange":       "max",
	"GlobalHorizon":        "min",
	"Hash.MaxBucketLen":    "max",
	"Txn.LastCID":          "max",
	"Pressure.Level":       "max",
	"Hash.CollisionRatio":  "Hash.Chains/Hash.Buckets",
	"Hash.AvgPerOccupied":  "Hash.Chains/Hash.OccupiedBuckets",
	"Pressure.Utilization": "Pressure.Live/Pressure.Hard",
}

// leaves flattens a Stats into path → value (bools as 0/1).
func leaves(t *testing.T, v reflect.Value, path string, out map[string]float64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p := v.Type().Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			leaves(t, v.Field(i), p, out)
		}
	case reflect.Bool:
		if out[path] = 0; v.Bool() {
			out[path] = 1
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		out[path] = float64(v.Int())
	case reflect.Uint64:
		out[path] = float64(v.Uint())
	case reflect.Float64:
		out[path] = v.Float()
	default:
		t.Fatalf("Stats.%s has kind %s: teach this test (and wire's walker) about it", path, v.Kind())
	}
}

// fill gives every numeric leaf a distinct value scaled by k and leaves
// bools false, so the two shards differ everywhere.
func fill(v reflect.Value, k int64, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), k, next)
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(k * *next)
	case reflect.Uint64:
		v.SetUint(uint64(k * *next))
	case reflect.Float64:
		v.SetFloat(float64(k * *next))
	}
}

func TestMergeStatsEveryField(t *testing.T) {
	var a, b Stats
	var n int64
	fill(reflect.ValueOf(&a).Elem(), 1, &n)
	n = 0
	fill(reflect.ValueOf(&b).Elem(), 3, &n)
	b.FailStop, b.Pressure.Enabled = true, true

	la, lb, lm := map[string]float64{}, map[string]float64{}, map[string]float64{}
	leaves(t, reflect.ValueOf(a), "", la)
	leaves(t, reflect.ValueOf(b), "", lb)
	leaves(t, reflect.ValueOf(MergeStats([]Stats{a, b})), "", lm)
	for path, got := range lm {
		var want float64
		switch rule := mergeRule[path]; rule {
		case "":
			want = la[path] + lb[path] // bools: 0+1
		case "max":
			want = math.Max(la[path], lb[path])
		case "min":
			want = math.Min(la[path], lb[path])
		default: // a ratio of two merged leaves
			var num, den string
			for i := range rule {
				if rule[i] == '/' {
					num, den = rule[:i], rule[i+1:]
				}
			}
			want = lm[num] / lm[den]
		}
		if got != want {
			t.Errorf("%s: merged %v from %v and %v, want %v (%s)", path, got, la[path], lb[path], want, mergeRule[path])
		}
	}
	for path := range mergeRule {
		if _, ok := lm[path]; !ok {
			t.Errorf("mergeRule names %s, which Stats no longer has", path)
		}
	}

	// One shard merges to itself, ratios untouched; none to the zero value.
	if got := MergeStats([]Stats{b}); got != b {
		t.Fatalf("single-shard merge changed the reading:\n in=%+v\nout=%+v", b, got)
	}
	if got := MergeStats(nil); got != (Stats{}) {
		t.Fatalf("empty merge = %+v", got)
	}
}

// TestStatsOneInstantStress reads Stats 10 000 times against writers that
// acquire, commit and release statement snapshots and readers that hold
// Trans-SI snapshots for a while. The snapshot indicators of one reading come
// from one view, so they must fit together every time: the commit ID range
// never exceeds (or wraps around) the commit timestamp, the horizon is never
// past the head, and when anything is active the horizon is exactly the range
// below the head. Read as two scans and a separate timestamp load — the shape
// this replaced — a snapshot acquired or released in between breaks the last
// and, one way round, wraps the first.
func TestStatsOneInstantStress(t *testing.T) {
	db := openTest(t, Config{HashBuckets: 256})
	tid := mustCreate(t, db, "T")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	spin := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					body()
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		rid := insert1(t, db, tid, "v")
		spin(func() {
			if err := db.Exec(txn.StmtSI, nil, func(tx *Tx) error { return tx.Update(tid, rid, []byte("w")) }); err != nil {
				t.Error(err)
			}
		})
	}
	for r := 0; r < 2; r++ {
		spin(func() {
			tx := db.Begin(txn.TransSI)
			runtime.Gosched()
			tx.Abort()
		})
	}
	for i := 0; i < 10000 && !t.Failed(); i++ {
		st := db.Stats()
		if st.ActiveCIDRange > st.CurrentCID {
			t.Errorf("reading %d: ActiveCIDRange %d > CurrentCID %d", i, st.ActiveCIDRange, st.CurrentCID)
		}
		if st.GlobalHorizon > st.CurrentCID+1 {
			t.Errorf("reading %d: GlobalHorizon %d past the head %d", i, st.GlobalHorizon, st.CurrentCID)
		}
		if st.ActiveSnapshots > 0 && st.GlobalHorizon != st.CurrentCID-st.ActiveCIDRange {
			t.Errorf("reading %d: %d snapshots, GlobalHorizon %d != CurrentCID %d - ActiveCIDRange %d",
				i, st.ActiveSnapshots, st.GlobalHorizon, st.CurrentCID, st.ActiveCIDRange)
		}
	}
	close(stop)
	wg.Wait()
}
