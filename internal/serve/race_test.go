//go:build race

package serve

// raceEnabled reports a -race build, whose detector allocates on its
// own: the allocation pin is skipped there.
const raceEnabled = true
