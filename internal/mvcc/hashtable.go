package mvcc

import (
	"sync"
	"sync/atomic"

	"hybridgc/internal/metrics"
	"hybridgc/internal/ts"
)

// HashTable is the central RID hash table of §2.2: a fixed array of buckets,
// each holding a linked list of version chains. When several chains land in
// one bucket, lookups pay extra pointer traversals — the collision cost whose
// impact Figure 13 measures — so the table exposes collision statistics.
//
// Reads are lock-free: bucket heads and the intra-bucket links are atomic
// pointers, so Get walks the collision list without taking the bucket mutex.
// The mutex serializes only the mutators (insert in GetOrCreate, unlink in
// Remove). The memory model argument for why a lock-free reader is safe
// against a concurrent unlink is spelled out in DESIGN.md §10; the short
// version is that an unlinked chain keeps its forward pointer, so a reader
// standing on it still reaches the rest of the bucket, and the chain's own
// `dead` flag (set under the chain latch before Remove is called) makes
// writers that raced with the removal retry their lookup.
type HashTable struct {
	buckets []hashBucket
	mask    uint64
	chains  atomic.Int64
	// occupied counts the non-empty buckets and maxLen is the longest any
	// bucket has been; the mutators keep both under the bucket mutex they
	// already hold, so Stats reads them instead of walking the buckets.
	occupied atomic.Int64
	maxLen   atomic.Int64
	// stats fuses the lookup and extra-hop counters, striped so the
	// statistics do not serialize lock-free readers on a shared cache line;
	// the key hash (already computed for bucket selection) spreads
	// concurrent readers over the stripes, and fusing the pair keeps both
	// updates on one line per lookup.
	stats metrics.StripedPair
}

type hashBucket struct {
	mu   sync.Mutex // serializes insert/unlink; readers never take it
	head atomic.Pointer[Chain]
}

// DefaultBuckets is the default RID hash table size. It is deliberately
// moderate so that an ineffective garbage collector visibly drives up the
// collision ratio, as in the paper's row store.
const DefaultBuckets = 1 << 14

// NewHashTable creates a table with at least n buckets (rounded up to a
// power of two; n<=0 selects DefaultBuckets).
func NewHashTable(n int) *HashTable {
	if n <= 0 {
		n = DefaultBuckets
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &HashTable{
		buckets: make([]hashBucket, size),
		mask:    uint64(size - 1),
	}
}

// hashKey mixes the (table, RID) pair with a splitmix64 finalizer.
func hashKey(k ts.RecordKey) uint64 {
	x := uint64(k.RID)*0x9e3779b97f4a7c15 ^ (uint64(k.Table) << 56)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Get returns the chain registered for key, or nil. It records the pointer
// hops spent walking the bucket's collision list. The walk is lock-free: it
// loads the bucket head and follows atomic bucketNext links, so concurrent
// inserts and GC unlinks never block a reader. A chain returned here may
// already be marked dead by a concurrent collector; callers that mutate take
// the chain latch and re-check, exactly as they did when Get held the bucket
// mutex — the race window merely moved from after Get to inside it.
func (h *HashTable) Get(key ts.RecordKey) *Chain {
	hk := hashKey(key)
	var found *Chain
	hops := int64(0)
	for c := h.buckets[hk&h.mask].head.Load(); c != nil; c = c.bucketNext.Load() {
		if c.Key == key {
			found = c
			break
		}
		hops++
	}
	// Stripe by the high hash bits: the low bits picked the bucket, so using
	// them again would correlate stripe contention with bucket contention.
	hint := hk >> 48
	if hops > 0 {
		h.stats.AddBoth(hint, 1, hops)
	} else {
		h.stats.AddA(hint, 1)
	}
	return found
}

// GetOrCreate returns the chain for key, creating and registering an empty
// one bound to rec if absent. The scan and insert run under the bucket
// mutex, serialized against other mutators; the new chain is published with
// an atomic store so lock-free readers observe a fully initialized Chain.
func (h *HashTable) GetOrCreate(key ts.RecordKey, rec RecordRef) *Chain {
	b := &h.buckets[hashKey(key)&h.mask]
	b.mu.Lock()
	defer b.mu.Unlock()
	n := int64(1) // the bucket's length once c is in
	for c := b.head.Load(); c != nil; c = c.bucketNext.Load() {
		if c.Key == key {
			return c
		}
		n++
	}
	c := &Chain{Key: key, Rec: rec}
	c.bucketNext.Store(b.head.Load())
	b.head.Store(c)
	h.chains.Add(1)
	if n == 1 {
		h.occupied.Add(1)
	}
	for m := h.maxLen.Load(); n > m; m = h.maxLen.Load() {
		if h.maxLen.CompareAndSwap(m, n) {
			break
		}
	}
	return c
}

// Remove unlinks chain c from its bucket. The caller must have marked the
// chain dead under its latch first, so racing writers retry GetOrCreate and
// observe a fresh chain rather than resurrecting this one.
//
// The unlinked chain's bucketNext is deliberately left intact: a lock-free
// reader that loaded c just before the unlink keeps following it to the rest
// of the bucket. New lookups can no longer reach c, and Go's garbage
// collector reclaims it once the last reader moves on — no epoch or hazard
// scheme is needed.
func (h *HashTable) Remove(c *Chain) {
	b := &h.buckets[hashKey(c.Key)&h.mask]
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.head.Load() == c:
		next := c.bucketNext.Load()
		b.head.Store(next)
		if next == nil {
			h.occupied.Add(-1)
		}
	default:
		for p := b.head.Load(); p != nil; p = p.bucketNext.Load() {
			if p.bucketNext.Load() == c {
				p.bucketNext.Store(c.bucketNext.Load())
				break
			}
		}
	}
	h.chains.Add(-1)
}

// ForEach visits every registered chain until fn returns false. Buckets are
// visited in order; each bucket's membership is copied under its mutex (a
// stable snapshot against concurrent insert/unlink) so fn runs without
// holding it.
func (h *HashTable) ForEach(fn func(*Chain) bool) {
	var batch []*Chain
	for i := range h.buckets {
		b := &h.buckets[i]
		b.mu.Lock()
		batch = batch[:0]
		for c := b.head.Load(); c != nil; c = c.bucketNext.Load() {
			batch = append(batch, c)
		}
		b.mu.Unlock()
		for _, c := range batch {
			if !fn(c) {
				return
			}
		}
	}
}

// HashStats summarizes the table's collision state.
type HashStats struct {
	Buckets         int
	Chains          int64
	OccupiedBuckets int
	// MaxBucketLen is a high-water mark: the longest any bucket has been
	// since the table was created.
	MaxBucketLen int
	// CollisionRatio is the average number of version chains per bucket —
	// the metric of Figure 13 (a ratio of 10 means 10 chains share a bucket
	// on average).
	CollisionRatio float64
	// AvgPerOccupied is the mean chain count over non-empty buckets only.
	AvgPerOccupied float64
	Lookups        int64
	ExtraHops      int64
}

// Stats returns collision statistics: a few counter loads, whatever the
// bucket count. The counters are read one after another, so under concurrent
// mutation they may describe slightly different instants.
func (h *HashTable) Stats() HashStats {
	st := HashStats{
		Buckets:         len(h.buckets),
		Chains:          h.chains.Load(),
		OccupiedBuckets: int(h.occupied.Load()),
		MaxBucketLen:    int(h.maxLen.Load()),
	}
	st.Lookups, st.ExtraHops = h.stats.Sums()
	st.CollisionRatio = float64(st.Chains) / float64(st.Buckets)
	if st.OccupiedBuckets > 0 {
		st.AvgPerOccupied = float64(st.Chains) / float64(st.OccupiedBuckets)
	}
	return st
}

// ChainCount returns the number of registered chains.
func (h *HashTable) ChainCount() int64 { return h.chains.Load() }
