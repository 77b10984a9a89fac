package metrics

import "sync/atomic"

// stripeCount is the number of independent counter cells in a striped
// counter. A power of two so the hint maps with a mask.
const stripeCount = 64

// stripe is one padded counter cell. The padding keeps adjacent stripes on
// different cache lines, so concurrent writers with different hints never
// bounce a line between cores.
type stripe struct {
	v atomic.Int64
	_ [120]byte
}

// Striped is a monotonic counter sharded over padded stripes. A plain
// atomic counter serializes every writer on one cache line; on read-hot
// paths that line becomes the bottleneck, not the data structure. Striped
// spreads writers over stripeCount cells keyed by a caller-supplied hint —
// any value that varies across concurrent callers, such as a key hash
// already in hand — and sums the cells on read. Add is wait-free; Sum is
// O(stripeCount) and only monotonically approximate under concurrent
// writers, which is exactly what statistics counters need. The zero value
// is ready to use.
type Striped struct {
	s [stripeCount]stripe
}

// Sum returns the total over all stripes.
func (c *Striped) Sum() int64 {
	var t int64
	for i := range c.s {
		t += c.s[i].v.Load()
	}
	return t
}

// pairStripe is one padded cell of a StripedPair: both counters share the
// cell's cache line, so a caller updating both pays one line acquisition
// instead of two.
type pairStripe struct {
	a atomic.Int64
	b atomic.Int64
	_ [112]byte
}

// StripedPair is two Striped counters fused stripe-by-stripe. Hot paths
// that maintain a pair of related statistics (the RID hash table counts
// lookups and the extra hops those lookups spent) would touch two distinct
// cache lines with two separate Striped counters; fusing them keeps each
// hint's pair on one line. The zero value is ready to use.
type StripedPair struct {
	s [stripeCount]pairStripe
}

// AddA adds n to the first counter's stripe selected by hint.
func (c *StripedPair) AddA(hint uint64, n int64) {
	c.s[hint&(stripeCount-1)].a.Add(n)
}

// AddBoth adds na to the first counter and nb to the second, on the same
// stripe selected by hint.
func (c *StripedPair) AddBoth(hint uint64, na, nb int64) {
	s := &c.s[hint&(stripeCount-1)]
	s.a.Add(na)
	s.b.Add(nb)
}

// Sums returns the totals of both counters.
func (c *StripedPair) Sums() (a, b int64) {
	for i := range c.s {
		a += c.s[i].a.Load()
		b += c.s[i].b.Load()
	}
	return a, b
}
