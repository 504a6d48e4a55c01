package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The outside view of a process: what the kernel accounts to it, read
// from /proc. These are the only numbers about the server that do not
// come from the server's own instrumentation.

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// has been 100 on every Linux architecture Go supports for decades; the
// benchmark has no cgo to ask sysconf.
const clockTick = 100

// procCPUSeconds returns utime+stime of pid, all threads, in seconds.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis (state is field 3).
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after command", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// statusField returns the numeric value of "Key:\t123 ..." in a
// /proc/.../status file.
func statusField(data []byte, key string) (uint64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// procPeakRSSMB returns VmHWM, the peak resident set of pid, in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := statusField(data, "VmHWM")
	if !ok {
		return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
	}
	return float64(kb) / 1024, nil
}

// procVoluntaryCtxSw sums voluntary context switches over pid's threads:
// each is a thread that blocked, which for a Go process is the kernel's
// view of goroutine hand-offs that could not stay on a running thread.
func procVoluntaryCtxSw(pid int) (uint64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads (%v)", pid, err)
	}
	var total uint64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if v, ok := statusField(data, "voluntary_ctxt_switches"); ok {
			total += v
		}
	}
	return total, nil
}
