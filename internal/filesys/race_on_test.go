//go:build race

package filesys

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
