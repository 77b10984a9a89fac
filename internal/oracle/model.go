package oracle

import (
	"sort"

	"hybridgc/internal/ts"
)

// Event is one committed effect on a record: the commit identifier and the
// resulting image ("" means deleted).
type Event struct {
	CID ts.CID
	Img string
}

// Model is a sequential model of committed state: per record, the ordered
// history of committed images. It answers the same question the engine's
// MVCC read path answers — "what does a snapshot at CID see?" — from plain
// bookkeeping, so engine reads can be validated against it. The oracle's
// randomized checker builds one alongside its live history, and the
// crash-matrix harness builds one from acknowledged commits to validate
// recovered state.
type Model struct {
	hist map[ts.RecordKey][]Event
	max  ts.CID
}

// NewModel creates an empty model.
func NewModel() *Model {
	return &Model{hist: make(map[ts.RecordKey][]Event)}
}

// Apply records one committed effect. Events must be applied in CID order
// per key (the natural order of a single-writer history).
func (m *Model) Apply(key ts.RecordKey, cid ts.CID, img string) {
	m.hist[key] = append(m.hist[key], Event{CID: cid, Img: img})
	if cid > m.max {
		m.max = cid
	}
}

// Read answers a point read at snapshot timestamp at: the image of the
// latest event with CID <= at, and whether the record exists (a deletion or
// absence of events reads as not-found).
func (m *Model) Read(key ts.RecordKey, at ts.CID) (string, bool) {
	var img string
	found := false
	for _, e := range m.hist[key] {
		if e.CID > at {
			break
		}
		img = e.Img
		found = e.Img != ""
	}
	return img, found
}

// Keys lists every record the model has seen, sorted (table, then RID) for
// deterministic iteration.
func (m *Model) Keys() []ts.RecordKey {
	out := make([]ts.RecordKey, 0, len(m.hist))
	for k := range m.hist {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].RID < out[j].RID
	})
	return out
}

// Clone returns an independent copy (the crash harness forks the model to
// build the with-pending-commit alternative).
func (m *Model) Clone() *Model {
	c := &Model{hist: make(map[ts.RecordKey][]Event, len(m.hist)), max: m.max}
	for k, evs := range m.hist {
		c.hist[k] = append([]Event(nil), evs...)
	}
	return c
}
