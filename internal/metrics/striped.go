package metrics

import "sync/atomic"

// stripeCount is the number of independent counter cells in a striped
// counter. A power of two so the hint maps with a mask.
const stripeCount = 64

// pairStripe is one padded cell of a StripedPair: both counters share the
// cell's cache line, so a caller updating both pays one line acquisition
// instead of two.
type pairStripe struct {
	a atomic.Int64
	b atomic.Int64
	_ [112]byte
}

// StripedPair is two monotonic counters sharded over padded stripes. A
// writer adds to the stripe its hint selects — any value that varies across
// concurrent callers, such as a key hash already in hand — so writers on
// different cores rarely share a cache line; Sums adds the stripes up, which
// is only monotonically approximate under concurrent writers. Both counters of
// a stripe share its line, so a caller that updates both (the RID hash table
// counts lookups and the extra hops they spent) pays one line. The zero value
// is ready to use.
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
