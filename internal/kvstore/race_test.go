//go:build race

package kvstore

// raceEnabled reports a -race build: sync.Pool then drops a random share
// of what is put back, so allocation counts are not exact.
const raceEnabled = true
