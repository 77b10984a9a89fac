//go:build race

package core

// raceEnabled gates the allocation pins: the race detector instruments
// sync.Pool with allocations of its own, so counts are meaningless under
// -race.
const raceEnabled = true
