//go:build race

package search

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Put items on purpose, so pooled scratch re-allocates at random.
const raceEnabled = true
