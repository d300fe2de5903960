//go:build race

package core

// raceEnabled gates the allocation counts, which the race detector's
// instrumentation changes.
const raceEnabled = true
