package main

import (
	"syscall"
	"time"
)

// setTimerSlack turns the calling thread's timer slack down from the
// default 50 µs to the minimum, so a kernel sleep ends when asked.
func setTimerSlack() {
	const prSetTimerSlack = 29
	// Failure leaves the default slack; loadgen.sched_lag_p99_us shows it.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the calling thread in the kernel until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
}
