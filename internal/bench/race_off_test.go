//go:build !race

package bench

// raceEnabled reports a race-detector build, whose instrumentation
// changes allocation counts.
const raceEnabled = false
