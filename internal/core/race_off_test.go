//go:build !race

package core

// raceEnabled gates the allocation pins; see race_on_test.go.
const raceEnabled = false
