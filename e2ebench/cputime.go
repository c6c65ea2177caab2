package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID: the CPU time every
// thread of this process has run, at nanosecond resolution.
const clockProcessCPU = 2

// cpuNow returns the process's CPU time (user + system, all threads). A
// span of it counts only time this process ran on a CPU: time other
// processes, or the hypervisor, held the CPU does not count, so it is the
// benchmark's clock for work on a shared host. See README.md.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
