//go:build race

package buffer

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what it is given, on purpose, so the tests
// that count the small class's misses and allocations skip. The large
// class is a stack of this package's own, which keeps what it is given:
// the tests that count only large arrays run under the detector too.
const raceEnabled = true
