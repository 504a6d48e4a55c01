//go:build race

package netd

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what it is given, on purpose — the buffer
// pool's small class among them — so the guards that count pool misses and
// allocations per call say nothing about the production build and skip.
// The large class is no sync.Pool: a guard that counts only payload-sized
// arrays (TestBulkBurstHandsOff) runs under the detector too.
const raceEnabled = true
