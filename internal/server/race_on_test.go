//go:build race

package server

// raceEnabled: the race detector makes sync.Pool drop transaction
// handles at random, so allocation counts are not meaningful under it.
const raceEnabled = true
