//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop handles at
// random, so allocation counts are not meaningful under it.
const raceEnabled = true
