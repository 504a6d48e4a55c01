//go:build race

package buffer

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what it is given, on purpose, so the tests
// that count the arrays a pool had to allocate skip.
const raceEnabled = true
