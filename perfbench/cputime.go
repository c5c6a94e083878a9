package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Clock IDs from <time.h>.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuNow returns the CPU time the process has used so far, user and
// system, summed over its threads. The benchmark measures host cost in
// CPU time rather than wall time: other tenants of a shared machine
// stretch wall time by 15% or more from run to run, while the CPU time
// of the same work varies less. While a CPU profile is being taken, the
// kernel keeps this clock only to the scheduler tick, a few ms, so only
// long spans of a traced episode can be timed with it.
func cpuNow() time.Duration { return clock(clockProcessCPUTimeID) }

// threadCPUNow returns the CPU time the calling thread has used so far,
// at nanosecond resolution even while a CPU profile is being taken.
func threadCPUNow() time.Duration { return clock(clockThreadCPUTimeID) }

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}
