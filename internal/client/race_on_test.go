//go:build race

package client_test

// raceEnabled gates the allocation pin: under -race the detector allocates on
// its own account.
const raceEnabled = true
