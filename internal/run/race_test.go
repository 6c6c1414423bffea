//go:build race

package run

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of what
// it is given on purpose.
const raceEnabled = true
