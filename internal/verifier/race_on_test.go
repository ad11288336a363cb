//go:build race

package verifier

// raceEnabled reports whether the race detector is compiled in; it
// drops sync.Pool puts at random, so allocation-count gates skip under it.
const raceEnabled = true
